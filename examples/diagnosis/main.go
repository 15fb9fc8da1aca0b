// Fault diagnosis: the downstream payoff of the fault simulator. A
// deterministic test set is generated with PODEM and compacted; a fault
// dictionary records every modelled fault's syndrome under it; a
// "defective part" is then diagnosed by matching its observed syndrome
// against the dictionary.
//
//	go run ./examples/diagnosis
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	ctx := context.Background()

	c := repro.Multiplier(4)
	fmt.Println(c)
	faults := repro.FaultsDominance(c)
	fmt.Printf("dictionary fault list (dominance collapsed): %d\n", len(faults))

	// Deterministic test set: PODEM + static compaction.
	ts, err := repro.GenerateTests(ctx, c, faults, repro.ATPGOptions{})
	if err != nil {
		log.Fatal(err)
	}
	vecs := repro.CompactTests(c, faults, ts.Vectors)
	fmt.Printf("test set: %d vectors (%d before compaction), %d redundant faults\n",
		len(vecs), len(ts.Vectors), len(ts.Redundant))

	// Build the dictionary and report its resolution.
	dict, err := repro.BuildDictionary(c, faults, vecs, repro.FullResponse)
	if err != nil {
		log.Fatal(err)
	}
	unique, largest := dict.Resolution()
	fmt.Printf("dictionary resolution: %.1f%% of faults uniquely diagnosable, largest ambiguity class %d\n",
		100*unique, largest)

	// Play tester: inject each of a few faults and diagnose.
	exact, classed := 0, 0
	probe := faults
	if len(probe) > 40 {
		probe = probe[:40]
	}
	for _, f := range probe {
		cands, err := dict.DiagnoseFault(c, f, vecs)
		if err != nil {
			log.Fatal(err)
		}
		if cands[0].Distance != 0 {
			log.Fatalf("diagnosis of %s found no distance-0 candidate", f.Name(c))
		}
		// Count exact (unique) hits vs ambiguity classes.
		zero := 0
		hit := false
		for _, cand := range cands {
			if cand.Distance > 0 {
				break
			}
			zero++
			if cand.Fault == f {
				hit = true
			}
		}
		if !hit {
			log.Fatalf("injected fault %s missing from its candidate class", f.Name(c))
		}
		if zero == 1 {
			exact++
		} else {
			classed++
		}
	}
	fmt.Printf("diagnosed %d injected faults: %d unique, %d within an ambiguity class\n",
		len(probe), exact, classed)
}
