// NP-completeness demonstrator: Set Cover reduces to budget-constrained
// test point insertion on circuits with reconvergent fanout — the
// hardness result the 1987 paper is cited for. This example builds the
// gadget circuit for a concrete instance, solves the TPI side by brute
// force with real fault simulation, and checks it against the exact Set
// Cover optimum.
//
//	go run ./examples/npc-reduction
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	ctx := context.Background()

	// U = {0..7}; can it be covered with K sets?
	sc := repro.SetCover{
		NumElements: 8,
		Sets: [][]int{
			{0, 1, 2},
			{2, 3},
			{3, 4, 5},
			{5, 6},
			{6, 7, 0},
			{1, 4, 7},
		},
	}
	fmt.Println("Set Cover instance:")
	for j, s := range sc.Sets {
		fmt.Printf("  S%d = %v\n", j, s)
	}

	red, err := repro.ReduceSetCover(sc)
	if err != nil {
		log.Fatal(err)
	}
	c := red.Circuit
	fmt.Printf("\ngadget circuit: %s\n", c)
	fmt.Printf("target faults (one per element): %d\n", len(red.TargetFaults))
	fmt.Printf("candidate observation sites (one per set): %d\n", len(red.Candidates))
	fmt.Printf("reconvergent fanout: %v (the blocker AND(t, NOT t) hides all faults)\n",
		c.HasReconvergentFanout())

	// Without observation points nothing is detectable.
	res, err := repro.Simulate(ctx, c, red.TargetFaults, repro.NewLFSR(1),
		repro.SimOptions{MaxPatterns: 4096, DropFaults: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfaults detected with 4096 patterns and no observation points: %d\n",
		len(res.FirstDetect))

	// Brute-force the TPI optimum (exponential — that is the point) and
	// compare with the Set Cover optimum.
	tpiMin, chosen, err := red.SolveTPIBruteForce()
	if err != nil {
		log.Fatal(err)
	}
	scMin := repro.SolveSetCoverExact(sc)
	fmt.Printf("\nminimum observation points (by exhaustive TPI search): %d\n", tpiMin)
	fmt.Printf("minimum cover (by exact set cover solver):            %d\n", scMin)
	fmt.Printf("solutions agree: %v\n", tpiMin == scMin)
	fmt.Print("chosen sets: ")
	for _, j := range chosen {
		fmt.Printf("S%d ", j)
	}
	fmt.Println()

	// Verify the chosen placement end to end.
	det, err := red.Detects(chosen)
	if err != nil {
		log.Fatal(err)
	}
	all := true
	for _, d := range det {
		all = all && d
	}
	fmt.Printf("all element faults detected with the chosen points: %v\n", all)
}
