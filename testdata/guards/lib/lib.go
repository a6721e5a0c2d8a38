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
