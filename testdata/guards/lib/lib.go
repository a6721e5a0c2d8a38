// Package lib seeds one finding for each guard.
package lib

// Config is a setting for Run.
type Config struct {
	Gain  int // seed: written with one constant only
	Level int
	Scale int
	Mode  int // seed: never written
}

// Result is what Run computes.
type Result struct {
	Sum   int
	Count int // seed: written and updated, never read
}

// Run computes a Result from c.
func Run(c Config) Result {
	r := Result{Sum: c.Gain*c.Level*c.Scale + c.Mode}
	r.Count = c.Level
	r.Count++
	return r
}

// Unused is the seed no code calls.
func Unused() {}

// tally counts the values Stats sees.
type tally struct {
	n    int
	hits int // seed: updated, never read
}

// key is a map key: the map reads its fields, which nothing selects.
type key struct{ lo, hi int }

// Stats returns the sum of xs and how many there are (seed: no call reads
// the count).
func Stats(xs []int) (int, int) {
	var t tally
	sum := 0
	for _, x := range xs {
		sum += x
		t.n++
		t.hits += x & 1
	}
	return sum, t.n
}

// Split returns the halves of x: one call drops the low half with _ and
// another reads it, so both results are read.
func Split(x int) (int, int) {
	seen := map[key]bool{{x / 2, x - x/2}: true}
	return x / 2, x - x/2 + len(seen) - 1
}
