package lint

import (
	"context"
	"testing"

	"repro/internal/atpg"
	"repro/internal/netlist"
)

// TestUntestableFaultsAreRedundant is the soundness cross-check promised
// by the constant pass: every fault lint marks structurally untestable
// must be proven redundant by an exhaustive PODEM search. Circuits are
// small enough that PODEM always reaches a conclusion.
func TestUntestableFaultsAreRedundant(t *testing.T) {
	circuits := []*netlist.Circuit{
		stuckCircuit(),
		parseFixture(t, "stuck.bench"),
	}
	// A fanout case: the constant feeds two consumers, so branch faults
	// are claimed untestable too.
	b := netlist.NewBuilder("fanoutconst")
	a := b.Input("a")
	bb := b.Input("b")
	na := b.NotGate("na", a)
	k := b.AndGate("k", a, na)
	u := b.OrGate("u", bb, k)
	v := b.AndGate("v", a, k) // also constant 0
	b.MarkOutput(u)
	b.MarkOutput(v)
	circuits = append(circuits, b.MustBuild())

	// An XOR-pair case exercising the parity rules.
	b = netlist.NewBuilder("xorpair")
	a = b.Input("a")
	bb = b.Input("b")
	x := b.XorGate("x", a, a)
	z := b.OrGate("z", bb, x)
	w := b.XnorGate("w", z, z)
	y := b.AndGate("y", w, z)
	b.MarkOutput(y)
	circuits = append(circuits, b.MustBuild())

	total := 0
	for _, c := range circuits {
		r := analyze(t, c, Options{})
		un := r.Untestable()
		if len(un) == 0 {
			t.Errorf("%s: expected at least one untestable fault", c.Name())
			continue
		}
		for _, f := range un {
			res, err := atpg.Generate(context.Background(), c, f, atpg.Options{BacktrackLimit: 100000})
			if err != nil {
				t.Errorf("%s: PODEM on %s: %v", c.Name(), f.Name(c), err)
				continue
			}
			if res.Status != atpg.Redundant {
				t.Errorf("%s: lint claims %s untestable but PODEM says %s",
					c.Name(), f.Name(c), res.Status)
			}
			total++
		}
	}
	if total < 5 {
		t.Errorf("cross-check covered only %d faults; expected a richer set", total)
	}
}
