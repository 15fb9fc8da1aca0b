// Signature-based BIST: the full self-test environment. An LFSR drives
// the circuit, a MISR compacts every output response, and a fault counts
// as caught only when its final signature differs from the good machine's
// — exactly what an on-chip BIST controller sees. The example shows the
// whole arrangement working before and after test point insertion, and
// reports compaction aliasing.
//
//	go run ./examples/signature-bist
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

const patterns = 2048

func main() {
	ctx := context.Background()

	// An equality comparator: out = (a == b) over 12-bit operands. The
	// XNOR/AND-tree structure makes the output side random-pattern
	// resistant (P(a==b) = 2^-12).
	c := repro.Comparator(12)
	fmt.Println(c)
	faults := repro.Faults(c)

	// Run the literal BIST session on the unmodified circuit.
	before, err := repro.RunBIST(c, faults, repro.NewLFSR(0xace1), patterns)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("good signature: %016x\n", before.GoodSignature)
	fmt.Printf("signature coverage @%d patterns: %.2f%% (aliased: %d)\n",
		patterns, 100*before.Coverage(), len(before.Aliased))

	// Insert test points and re-run the identical session.
	plan, err := repro.PlanTestPoints(ctx, c, faults, 2, 3, 4.0/patterns)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ninserted %d control + %d observation point(s)\n",
		len(plan.Control.Points), len(plan.Observe.Points))
	after, err := repro.RunBIST(plan.Modified, faults, repro.NewLFSR(0xace1), patterns)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("signature coverage @%d patterns: %.2f%% (aliased: %d)\n",
		patterns, 100*after.Coverage(), len(after.Aliased))

	// Cross-check the signature verdicts against direct PO comparison:
	// they must agree except where the result reports aliasing.
	direct, err := repro.Simulate(ctx, plan.Modified, faults, repro.NewLFSR(0xace1),
		repro.SimOptions{MaxPatterns: patterns, DropFaults: true})
	if err != nil {
		log.Fatal(err)
	}
	mismatches := 0
	for _, f := range faults {
		_, po := direct.FirstDetect[f]
		if po != after.Detected[f] {
			mismatches++
		}
	}
	fmt.Printf("\nsignature vs direct-comparison mismatches: %d (aliasing events: %d)\n",
		mismatches, len(after.Aliased))
	if mismatches == len(after.Aliased) {
		fmt.Println("every mismatch is an accounted aliasing event — compaction verified")
	}
}
