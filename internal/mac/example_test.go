package mac_test

import (
	"fmt"
	"math/rand"

	"vab/internal/mac"
)

// staticBackend answers polls deterministically: nodes 0 and 1 are
// healthy, node 2 is out of range.
type staticBackend struct{}

func (staticBackend) BeginCycle(int, float64, mac.Schedule) error { return nil }

func (staticBackend) Draw(c *mac.Chunk) error {
	for _, p := range c.Polls {
		if p.Node == 2 {
			c.Fold(&mac.Outcome{Attempts: p.Attempts}) // every attempt timed out
			continue
		}
		c.Fold(&mac.Outcome{Attempts: 1, Delivered: true, SNRdB: 15})
	}
	return nil
}

// Example runs one polling cycle over a three-node deployment: the
// reader-initiated MAC retries the silent node and reports per-node
// delivery.
func Example() {
	sched, err := mac.NewScheduler(staticBackend{}, mac.NewNodeColumns(3), 1, mac.DefaultPollPolicy())
	if err != nil {
		panic(err)
	}
	rep, err := sched.RunCycle()
	if err != nil {
		panic(err)
	}
	fmt.Printf("delivered %d/%d (retries %d)\n", rep.Delivered, rep.Polled, rep.Retries)
	// Output:
	// delivered 2/3 (retries 2)
}

// ExampleDiscoverAll resolves ten unknown nodes with framed-slotted
// discovery: colliding responses cancel, so repeated rounds with fresh nonces are needed.
func ExampleDiscoverAll() {
	addrs := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	rounds, found := mac.DiscoverAll(addrs, 8, 0, rand.New(rand.NewSource(2)), 100)
	fmt.Printf("discovered %d/%d nodes in %d rounds\n", len(found), len(addrs), rounds)
	// Output:
	// discovered 10/10 nodes in 19 rounds
}
