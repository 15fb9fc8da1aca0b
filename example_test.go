package repro_test

import (
	"context"
	"fmt"
	"log"

	"repro"
)

// ExamplePlanCuts shows the paper's core result: optimal insertion of
// full test points into a fanout-free circuit by dynamic programming.
func ExamplePlanCuts() {
	// AND(AND(a,b), AND(c,d)): 5 tests minimum without test points.
	b := repro.NewBuilder("two")
	a := b.Input("a")
	x := b.Input("b")
	cc := b.Input("c")
	d := b.Input("d")
	g1 := b.AndGate("g1", a, x)
	g2 := b.AndGate("g2", cc, d)
	b.MarkOutput(b.AndGate("root", g1, g2))
	c := b.MustBuild()

	for k := 0; k <= 2; k++ {
		plan, err := repro.PlanCuts(c, k)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("K=%d: %d tests\n", k, plan.MaxCost)
	}
	// Output:
	// K=0: 5 tests
	// K=1: 4 tests
	// K=2: 3 tests
}

// ExampleSimulate fault-simulates c17 exhaustively: every collapsed
// stuck-at fault is detected.
func ExampleSimulate() {
	c := repro.C17()
	faults := repro.Faults(c)
	res, err := repro.Simulate(context.Background(), c, faults, repro.NewCounter(5),
		repro.SimOptions{MaxPatterns: 32, DropFaults: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d/%d faults detected\n", len(res.FirstDetect), len(faults))
	// Output:
	// 22/22 faults detected
}

// ExampleComputeTestCounts evaluates the Hayes–Friedman recurrences: a
// width-8 AND cone needs exactly 9 tests.
func ExampleComputeTestCounts() {
	c := repro.AndCone(8)
	ct, err := repro.ComputeTestCounts(c)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("minimal complete test set: %d tests\n", ct.CircuitTests())
	// Output:
	// minimal complete test set: 9 tests
}

// ExampleGenerateTests runs PODEM over a circuit with a redundant gate:
// the undetectable fault is proven redundant, the rest get vectors.
func ExampleGenerateTests() {
	// z = OR(a, AND(b, NOT b)) — the AND is constant 0.
	b := repro.NewBuilder("red")
	a := b.Input("a")
	x := b.Input("b")
	nb := b.NotGate("nb", x)
	g := b.AndGate("g", x, nb)
	b.MarkOutput(b.OrGate("z", a, g))
	c := b.MustBuild()

	ts, err := repro.GenerateTests(context.Background(), c, repro.Faults(c), repro.ATPGOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("vectors: %d, redundant faults: %d\n", len(ts.Vectors), len(ts.Redundant))
	// Output:
	// vectors: 3, redundant faults: 3
}

// ExampleEquivalent proves two netlists compute the same function.
func ExampleEquivalent() {
	c := repro.RippleCarryAdder(3)
	optimized, _, err := repro.Optimize(c)
	if err != nil {
		log.Fatal(err)
	}
	same, _, err := repro.Equivalent(c, optimized)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("equivalent after optimization:", same)
	// Output:
	// equivalent after optimization: true
}
