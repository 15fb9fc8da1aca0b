package implic

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/netlist"
)

// indirectCircuit is the classic SOCRATES motivating example:
// z = OR(AND(a,b), AND(a,c)). Direct propagation of z=1 fixes nothing,
// but a=0 forces z=0, so the learned contrapositive yields z=1 => a=1.
func indirectCircuit() (*netlist.Circuit, int, int) {
	b := netlist.NewBuilder("indirect")
	a := b.Input("a")
	x := b.Input("b")
	y := b.Input("c")
	g1 := b.AndGate("g1", a, x)
	g2 := b.AndGate("g2", a, y)
	z := b.OrGate("z", g1, g2)
	b.MarkOutput(z)
	return b.MustBuild(), z, a
}

func TestDirectImplications(t *testing.T) {
	b := netlist.NewBuilder("and2")
	a := b.Input("a")
	x := b.Input("b")
	g := b.AndGate("g", a, x)
	b.MarkOutput(g)
	c := b.MustBuild()
	e := New(c, Options{})

	// g=1 implies a=1 and b=1 (backward justification).
	if !e.Implies(MkLit(g, true), MkLit(a, true)) || !e.Implies(MkLit(g, true), MkLit(x, true)) {
		t.Errorf("AND output 1 must imply both inputs 1; got %v", e.Implied(MkLit(g, true)))
	}
	// a=0 implies g=0 (forward controlling value).
	if !e.Implies(MkLit(a, false), MkLit(g, false)) {
		t.Errorf("controlling input must imply the output")
	}
	// a=1 implies nothing about g.
	if e.Implies(MkLit(a, true), MkLit(g, true)) || e.Implies(MkLit(a, true), MkLit(g, false)) {
		t.Errorf("non-controlling input alone must not fix the output")
	}
}

func TestLearnedIndirectImplication(t *testing.T) {
	c, z, a := indirectCircuit()

	direct := New(c, Options{LearnRounds: -1})
	if direct.Implies(MkLit(z, true), MkLit(a, true)) {
		t.Fatalf("z=1 => a=1 is not derivable by direct propagation; learning is off")
	}
	learned := New(c, Options{})
	if !learned.Implies(MkLit(z, true), MkLit(a, true)) {
		t.Errorf("learning must discover z=1 => a=1; got %v", learned.Implied(MkLit(z, true)))
	}
	if learned.NumLearned() == 0 {
		t.Errorf("expected learned implications, got none")
	}
}

func TestConstantDetection(t *testing.T) {
	// k = AND(a, NOT a) is constant 0; the engine proves it by conflict.
	b := netlist.NewBuilder("const")
	a := b.Input("a")
	na := b.NotGate("na", a)
	k := b.AndGate("k", a, na)
	z := b.OrGate("z", b.Input("b"), k)
	b.MarkOutput(z)
	c := b.MustBuild()
	e := New(c, Options{})

	v, ok := e.ConstValue(k)
	if !ok || v {
		t.Fatalf("k must be proven constant 0; got ok=%v v=%v", ok, v)
	}
	if e.Feasible(MkLit(k, true)) {
		t.Errorf("k=1 must be infeasible")
	}
	if !e.Feasible(MkLit(k, false)) {
		t.Errorf("k=0 must be feasible")
	}
	if got := e.Constants(); len(got) != 1 || got[0] != k {
		t.Errorf("Constants() = %v, want [%d]", got, k)
	}
}

func TestXorImplications(t *testing.T) {
	b := netlist.NewBuilder("xor")
	a := b.Input("a")
	x := b.Input("b")
	g := b.XorGate("g", a, x)
	b.MarkOutput(g)
	c := b.MustBuild()
	e := New(c, Options{})

	// XOR output with one known input determines the other... only once
	// two of the three lines are known, so single-literal propagation
	// cannot fix anything here.
	if len(e.Implied(MkLit(g, true))) != 0 {
		t.Errorf("XOR output alone must imply nothing, got %v", e.Implied(MkLit(g, true)))
	}
	// But x = XOR(a, a) folds to constant 0 by propagation... via the
	// duplicate-pin parity rule once a is assigned: check the engine
	// stays sound (no constant claimed for plain XOR).
	if len(e.Constants()) != 0 {
		t.Errorf("plain XOR has no constants, got %v", e.Constants())
	}
}

func TestDominatorsChain(t *testing.T) {
	// a -> g1=AND(a,b) -> g2=OR(g1,c) -> out; the chain of g1 is g2.
	b := netlist.NewBuilder("chain")
	a := b.Input("a")
	x := b.Input("b")
	y := b.Input("c")
	g1 := b.AndGate("g1", a, x)
	g2 := b.OrGate("g2", g1, y)
	b.MarkOutput(g2)
	c := b.MustBuild()
	e := New(c, Options{})

	if d, ok := e.Dominator(g1); !ok || d != g2 {
		t.Errorf("Dominator(g1) = %d,%v want %d,true", d, ok, g2)
	}
	if got := e.Dominators(a); len(got) != 2 || got[0] != g1 || got[1] != g2 {
		t.Errorf("Dominators(a) = %v, want [%d %d]", got, g1, g2)
	}
	// The output itself has no gate dominator.
	if _, ok := e.Dominator(g2); ok {
		t.Errorf("a primary output must have no gate dominator")
	}
}

func TestDominatorsReconvergence(t *testing.T) {
	// s fans out to g1 and g2 which reconverge at z: neither g1 nor g2
	// dominates s, but z does.
	b := netlist.NewBuilder("reconv")
	a := b.Input("a")
	x := b.Input("b")
	s := b.BufGate("s", a)
	g1 := b.AndGate("g1", s, x)
	g2 := b.OrGate("g2", s, x)
	z := b.XorGate("z", g1, g2)
	b.MarkOutput(z)
	c := b.MustBuild()
	e := New(c, Options{})

	if d, ok := e.Dominator(s); !ok || d != z {
		t.Errorf("Dominator(s) = %d,%v want %d,true", d, ok, z)
	}
}

func TestDeadLogicUnobservable(t *testing.T) {
	b := netlist.NewBuilder("dead")
	a := b.Input("a")
	x := b.Input("b")
	dead := b.AndGate("dead", a, x) // no fanout, not an output
	z := b.OrGate("z", a, x)
	b.MarkOutput(z)
	c := b.MustBuild()
	e := New(c, Options{})
	if e.Observable(dead) {
		t.Errorf("gate with no path to an output must be unobservable")
	}
	if e.Dominators(dead) != nil {
		t.Errorf("dead gate must have no dominators")
	}
	if !e.Observable(z) || !e.Observable(a) {
		t.Errorf("live signals must be observable")
	}
}

func TestRedundantDominatorBlocked(t *testing.T) {
	// n1 = AND(a,b); z = OR(n1, a). Exciting n1 s-a-0 needs n1=1, which
	// implies a=1, the controlling value of the dominator z: redundant.
	b := netlist.NewBuilder("blocked")
	a := b.Input("a")
	x := b.Input("b")
	n1 := b.AndGate("n1", a, x)
	z := b.OrGate("z", n1, a)
	b.MarkOutput(z)
	c := b.MustBuild()
	e := New(c, Options{})

	red := e.RedundantSet()
	if !red[fault.Fault{Gate: n1, Pin: -1, Stuck: false}] {
		t.Errorf("n1 s-a-0 must be statically redundant; got %v", e.RedundantFaults())
	}
	if red[fault.Fault{Gate: n1, Pin: -1, Stuck: true}] {
		t.Errorf("n1 s-a-1 is testable (a=0, b=1) and must not be reported")
	}
}

func TestRedundantNoneOnC17(t *testing.T) {
	// c17 is fully testable: the pass must stay silent.
	e := New(gen.C17(), Options{})
	if r := e.RedundantFaults(); len(r) != 0 {
		t.Errorf("c17 has no redundant faults, engine claims %v", r)
	}
}

func TestCollapseDropsRedundantClasses(t *testing.T) {
	b := netlist.NewBuilder("blocked")
	a := b.Input("a")
	x := b.Input("b")
	n1 := b.AndGate("n1", a, x)
	z := b.OrGate("z", n1, a)
	b.MarkOutput(z)
	c := b.MustBuild()
	e := New(c, Options{})

	collapsed := e.Collapse()
	for _, f := range collapsed {
		if e.RedundantSet()[f] {
			t.Errorf("collapsed list contains redundant fault %v", f)
		}
	}
	plain := fault.CollapseWithDominance(c)
	if len(collapsed) >= len(plain) {
		t.Errorf("engine collapse %d must be smaller than plain dominance %d", len(collapsed), len(plain))
	}
}

func TestImpliedListsSortedAndConsistent(t *testing.T) {
	c := gen.RandomDAG(3, 8, 60, gen.DAGOptions{})
	e := New(c, Options{})
	for l := Lit(0); int(l) < 2*c.NumGates(); l++ {
		list := e.Implied(l)
		for i := 1; i < len(list); i++ {
			if list[i-1] >= list[i] {
				t.Fatalf("implied list of %d not strictly sorted: %v", l, list)
			}
		}
		for _, b := range list {
			if b.Signal() == l.Signal() && b != l {
				t.Fatalf("literal %d implies its own negation %d without being infeasible", l, b)
			}
		}
	}
}

func TestStats(t *testing.T) {
	c := gen.C17()
	e := New(c, Options{})
	s := e.Stats()
	if s.Gates != c.NumGates() || s.Redundant != 0 || s.Dead != 0 {
		t.Errorf("unexpected stats %+v", s)
	}
	if s.Implications == 0 {
		t.Errorf("c17 must produce a non-empty implication database")
	}
}
