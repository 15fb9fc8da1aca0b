package atpg

import (
	"context"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/implic"
	"repro/internal/netlist"
)

// learnCircuits are the shapes used to compare assisted and unassisted
// PODEM. They mix reconvergent fanout (where pruning bites) with regular
// arithmetic structure (where it must at least do no harm).
func learnCircuits(t *testing.T) map[string]*netlist.Circuit {
	t.Helper()
	return map[string]*netlist.Circuit{
		"c17":    gen.C17(),
		"parity": gen.ParityTree(8),
		"rca":    gen.RippleCarryAdder(4),
		"dag":    gen.RandomDAG(11, 10, 120, gen.DAGOptions{}),
		"rpr":    gen.RPResistant(5, 3, 6, 2),
	}
}

// TestLearnedSearchAgreesAndNeverBacktracksMore checks the two hard
// promises of Options.Learn: per-fault status is unchanged, and the
// pruned search never spends more backtracks than the baseline.
func TestLearnedSearchAgreesAndNeverBacktracksMore(t *testing.T) {
	for name, c := range learnCircuits(t) {
		t.Run(name, func(t *testing.T) {
			eng := implic.New(c, implic.Options{})
			baseTotal, learnTotal := 0, 0
			for _, f := range fault.Universe(c) {
				base, err := Generate(context.Background(), c, f, Options{})
				if err != nil {
					t.Fatalf("baseline %v: %v", f, err)
				}
				learned, err := Generate(context.Background(), c, f, Options{Learn: eng})
				if err != nil {
					t.Fatalf("learned %v: %v", f, err)
				}
				if base.Status != learned.Status {
					t.Errorf("fault %v: status %v with learning vs %v without", f, learned.Status, base.Status)
				}
				if learned.Backtracks > base.Backtracks {
					t.Errorf("fault %v: learning increased backtracks %d -> %d", f, base.Backtracks, learned.Backtracks)
				}
				baseTotal += base.Backtracks
				learnTotal += learned.Backtracks
			}
			t.Logf("%s: backtracks %d baseline, %d learned", name, baseTotal, learnTotal)
		})
	}
}

// TestLearnedVectorsStillDetect re-checks every vector found by the
// assisted search against the two-copy simulator: pruning must never
// damage the produced tests.
func TestLearnedVectorsStillDetect(t *testing.T) {
	c := gen.RandomDAG(23, 8, 90, gen.DAGOptions{})
	eng := implic.New(c, implic.Options{})
	for _, f := range fault.Universe(c) {
		res, err := Generate(context.Background(), c, f, Options{Learn: eng})
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if res.Status == Detected && !vectorDetects(c, f, res.Vector) {
			t.Errorf("fault %v: vector from learned search does not detect it", f)
		}
	}
}

// TestLearnOnMismatchedCircuitIsIgnored guards the facade contract: an
// engine built for a different circuit must be silently ignored, not
// misapplied.
func TestLearnOnMismatchedCircuitIsIgnored(t *testing.T) {
	c := gen.C17()
	other := implic.New(gen.ParityTree(4), implic.Options{})
	f := fault.Fault{Gate: c.Outputs()[0], Pin: -1, Stuck: false}
	res, err := Generate(context.Background(), c, f, Options{Learn: other})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if res.Status != Detected {
		t.Errorf("output stem fault of c17 must be detected, got %v", res.Status)
	}
}
