// Quickstart: load a circuit, measure its random-pattern fault coverage,
// insert test points with the planners, and measure again.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	ctx := context.Background()

	// A 16-wide AND cone is the canonical random-pattern-resistant
	// structure: its output stuck-at-0 needs the all-ones input pattern,
	// which uniform random patterns hit once in 65536 tries.
	c := repro.AndCone(16)
	fmt.Println(c)

	faults := repro.Faults(c)
	fmt.Printf("collapsed stuck-at faults: %d\n", len(faults))

	// Baseline: 4096 LFSR patterns.
	opts := repro.SimOptions{MaxPatterns: 4096, DropFaults: true}
	before, err := repro.Simulate(ctx, c, faults, repro.NewLFSR(1), opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coverage before TPI: %.2f%%\n", 100*before.Coverage())

	// Where do the escapes hide? Ask the testability analysis.
	co := repro.NewCOP(c, repro.COPOptions{})
	for _, f := range before.Undetected() {
		fmt.Printf("  undetected: %-16s estimated detection probability %.2e\n",
			f.Name(c), co.DetectProb(f))
	}

	// Plan 2 control points + 2 observation points targeting faults that
	// need at least detection probability 4/4096 to be caught reliably.
	plan, err := repro.PlanTestPoints(ctx, c, faults, 2, 2, 4.0/4096)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inserted %d control point(s), %d observation point(s)\n",
		len(plan.Control.Points), len(plan.Observe.Points))

	// Same patterns, modified circuit. The fault list still refers to the
	// original gates — insertion preserves their IDs.
	after, err := repro.Simulate(ctx, plan.Modified, faults, repro.NewLFSR(1), opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coverage after TPI:  %.2f%%\n", 100*after.Coverage())
}
