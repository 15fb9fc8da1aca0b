package repro

import (
	"context"
	"strings"
	"testing"
)

// TestFacadeQuickstart exercises the public API end to end the way the
// README quickstart does: build, analyse, plan, insert, re-simulate.
func TestFacadeQuickstart(t *testing.T) {
	c := AndCone(16)
	faults := Faults(c)

	before, err := Simulate(context.Background(), c, faults, NewLFSR(1), SimOptions{MaxPatterns: 4096, DropFaults: true})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanTestPoints(context.Background(), c, faults, 2, 2, 1.0/512)
	if err != nil {
		t.Fatal(err)
	}
	after, err := Simulate(context.Background(), plan.Modified, faults, NewLFSR(1), SimOptions{MaxPatterns: 4096, DropFaults: true})
	if err != nil {
		t.Fatal(err)
	}
	if after.Coverage() <= before.Coverage() {
		t.Errorf("coverage did not improve: %.4f -> %.4f", before.Coverage(), after.Coverage())
	}
}

func TestFacadeBenchRoundTrip(t *testing.T) {
	c := C17()
	var sb strings.Builder
	if err := WriteBench(&sb, c); err != nil {
		t.Fatal(err)
	}
	c2, err := ParseBench(strings.NewReader(sb.String()), "c17")
	if err != nil {
		t.Fatal(err)
	}
	if c2.NumGates() != c.NumGates() {
		t.Errorf("round trip: %d != %d gates", c2.NumGates(), c.NumGates())
	}
}

func TestFacadeCutPlanning(t *testing.T) {
	c := RandomTree(1, 40, TreeOptions{})
	ct, err := ComputeTestCounts(c)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanCuts(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	if plan.BaseCost != ct.CircuitTests() {
		t.Errorf("base cost mismatch: %d vs %d", plan.BaseCost, ct.CircuitTests())
	}
	if plan.MaxCost > plan.BaseCost {
		t.Errorf("plan worsened the objective")
	}
	greedy, err := PlanCutsGreedy(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	if plan.MaxCost > greedy.MaxCost {
		t.Errorf("DP %d worse than greedy %d", plan.MaxCost, greedy.MaxCost)
	}
}

func TestFacadeATPGAndTestability(t *testing.T) {
	c := C17()
	co := NewCOP(c, COPOptions{})
	if p := co.Controllability(c.Outputs()[0]); p <= 0 || p >= 1 {
		t.Errorf("implausible output probability %f", p)
	}
	sc := NewSCOAP(c)
	if sc.CO[c.Outputs()[0]] != 0 {
		t.Error("PO observability must be 0")
	}
	ts, err := GenerateTests(context.Background(), c, Faults(c), ATPGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(context.Background(), c, Faults(c), NewVectors(ts.Vectors), SimOptions{MaxPatterns: 64, DropFaults: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage() != 1 {
		t.Errorf("ATPG set covers %.4f of c17", res.Coverage())
	}
}

func TestFacadeSetCoverReduction(t *testing.T) {
	red, err := ReduceSetCover(SetCover{NumElements: 3, Sets: [][]int{{0, 1}, {1, 2}}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := red.Feasible([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("full cover must be feasible")
	}
}

// TestFacadeLint exercises the static-analysis entry point: c17 is clean,
// a hand-built stuck-constant circuit is rejected, and the untestable
// fault it reports is confirmed redundant by PODEM through the facade.
func TestFacadeLint(t *testing.T) {
	if rep := Lint(C17(), LintOptions{}); rep.HasErrors() {
		t.Errorf("c17 must lint clean: %v", rep.Findings)
	}

	b := NewBuilder("stuck")
	a := b.Input("a")
	bb := b.Input("b")
	na := b.NotGate("na", a)
	k := b.AndGate("k", a, na)
	z := b.OrGate("z", bb, k)
	b.MarkOutput(z)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("built circuit must validate: %v", err)
	}
	rep := Lint(c, LintOptions{})
	if !rep.HasErrors() {
		t.Fatalf("expected an error-severity finding: %v", rep.Findings)
	}
	un := rep.Untestable()
	if len(un) == 0 {
		t.Fatal("expected an untestable fault")
	}
	for _, f := range un {
		res, err := GenerateTest(c, f, ATPGOptions{BacktrackLimit: 100000})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status.String() != "redundant" {
			t.Errorf("fault %s: PODEM says %s, lint claims untestable", f.Name(c), res.Status)
		}
	}
}
