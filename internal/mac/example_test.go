package mac_test

import (
	"fmt"

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
