// BIST coverage study: the workload that motivates test point insertion.
// A random-pattern-resistant circuit is fault-simulated under a 32k-
// pattern LFSR BIST session; the coverage curve flattens far below 100%.
// Test points are planned and inserted, the session re-run, and the two
// curves printed side by side. Deterministic PODEM top-up vectors finish
// off whatever random patterns still miss.
//
//	go run ./examples/bist-coverage
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

const patterns = 32768

func main() {
	ctx := context.Background()

	// Three wide AND cones buried in 120 gates of random glue logic.
	c := repro.RPResistant(7, 3, 14, 120)
	fmt.Println(c)
	faults := repro.Faults(c)
	fmt.Printf("collapsed faults: %d\n\n", len(faults))

	orig, err := curve(ctx, c, faults)
	if err != nil {
		log.Fatal(err)
	}

	// Plan the test points: the threshold 4/patterns asks that every
	// targeted fault have a decent chance of several detections within
	// the session.
	plan, err := repro.PlanTestPoints(ctx, c, faults, 4, 6, 4.0/patterns)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan: %d control points, %d observation points\n\n",
		len(plan.Control.Points), len(plan.Observe.Points))
	mod, err := curve(ctx, plan.Modified, faults)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%10s  %12s  %12s\n", "patterns", "original", "with TPs")
	for i := range orig {
		fmt.Printf("%10d  %11.2f%%  %11.2f%%\n", (i+1)*patterns/16, 100*orig[i], 100*mod[i])
	}

	// Whatever the modified circuit still misses gets deterministic
	// top-up vectors from PODEM — the classic hybrid BIST arrangement.
	res, err := repro.Simulate(ctx, plan.Modified, faults, repro.NewLFSR(0xbadc0de),
		repro.SimOptions{MaxPatterns: patterns, DropFaults: true})
	if err != nil {
		log.Fatal(err)
	}
	remaining := res.Undetected()
	if len(remaining) == 0 {
		fmt.Println("\nno faults left for deterministic top-up")
		return
	}
	ts, err := repro.GenerateTests(ctx, plan.Modified, remaining, repro.ATPGOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntop-up: %d undetected faults -> %d deterministic vectors (%d proven redundant, %d aborted)\n",
		len(remaining), len(ts.Vectors), len(ts.Redundant), len(ts.Aborted))
	final := float64(len(faults)-len(remaining)+len(ts.Detected)) / float64(len(faults))
	fmt.Printf("final coverage including top-up: %.2f%%\n", 100*final)
}

// curve returns 16 coverage samples along the BIST session.
func curve(ctx context.Context, c *repro.Circuit, faults []repro.Fault) ([]float64, error) {
	res, err := repro.Simulate(ctx, c, faults, repro.NewLFSR(0xbadc0de),
		repro.SimOptions{MaxPatterns: patterns, DropFaults: true})
	if err != nil {
		return nil, err
	}
	var out []float64
	for _, p := range res.Curve(patterns / 16) {
		out = append(out, p.Coverage)
	}
	return out, nil
}
