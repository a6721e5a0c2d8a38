package mac_test

import (
	"fmt"
	"math/rand"

	"vab/internal/mac"
)

// staticTrx answers queries deterministically: nodes 1 and 2 are healthy,
// node 3 is out of range.
type staticTrx struct{}

func (staticTrx) Poll(addr byte, _ float64) (mac.RoundResult, error) {
	if addr == 3 {
		return mac.RoundResult{}, nil
	}
	return mac.RoundResult{OK: true, Payload: []byte{addr}, SNRdB: 15}, nil
}

// Example runs one polling cycle over a three-node deployment: the
// reader-initiated MAC retries the silent node and reports per-node
// delivery.
func Example() {
	sched, err := mac.NewScheduler(staticTrx{}, mac.DefaultPollPolicy())
	if err != nil {
		panic(err)
	}
	for _, a := range []byte{1, 2, 3} {
		sched.AddNode(a)
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
