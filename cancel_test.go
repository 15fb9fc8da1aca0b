package repro

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/atpg"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/gen"
	"repro/internal/implic"
	"repro/internal/lint"
	"repro/internal/netlist"
	"repro/internal/pattern"
	"repro/internal/tpi"
)

// cancelBound is the cancellation contract's latency: a call made with a
// context that is already cancelled, and a call whose context is
// cancelled mid-run, must both return within it. Builds with the race
// detector scale it (race_test.go).
var cancelBound = 20 * time.Millisecond

// cancelRow is one exported ctx-taking entry point. run calls it on an
// input that runs for much longer than 10×cancelBound and returns its
// partial result (or nil) and error; check, when set, validates a
// partial result outside the timed region.
type cancelRow struct {
	name  string
	run   func(ctx context.Context) (any, error)
	check func(t *testing.T, partial any)
}

// TestCancellationContract pins cancellation as an ordinary error for
// every exported ctx-taking engine entry point. Each row is called once
// with a cancelled context and once with a context cancelled
// 10×cancelBound after the call starts. Both must return
// context.Canceled within cancelBound. The mid-run call only passes if
// the input was still running when the cancel landed, which is what
// shows the input is large enough for the check to mean something.
func TestCancellationContract(t *testing.T) {
	for _, row := range cancelRows() {
		t.Run(row.name, func(t *testing.T) {
			t.Run("pre-cancelled", func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				start := time.Now()
				partial, err := row.run(ctx)
				elapsed := time.Since(start)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				if elapsed > cancelBound {
					t.Errorf("returned %v after the call, want under %v", elapsed, cancelBound)
				}
				if row.check != nil {
					row.check(t, partial)
				}
			})
			t.Run("mid-run", func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				fired := make(chan time.Time, 1)
				timer := time.AfterFunc(10*cancelBound, func() {
					fired <- time.Now()
					cancel()
				})
				defer timer.Stop()
				partial, err := row.run(ctx)
				returned := time.Now()
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled from a cancel %v into the run", err, 10*cancelBound)
				}
				if lat := returned.Sub(<-fired); lat > cancelBound {
					t.Errorf("returned %v after the cancel, want under %v", lat, cancelBound)
				}
				if row.check != nil {
					row.check(t, partial)
				}
			})
		})
	}
}

// cancelRows builds the table. Full-run times on a 2-CPU container
// without the race detector: fault simulation never finishes (2^30
// patterns, no fault dropping); the redundant-XOR PODEM search never
// finishes; test generation over the 1,500-gate DAG takes seconds; its
// implication build takes about 1 s and its redundancy sweep 0.8 s; the
// fan-in ladder's dominator fixpoint takes about 0.5 s; the cut DP on
// the 32,768-leaf tree takes 0.6 s, the observation DP on the 4,000-leaf
// tree 0.8 s, the observation DP on c17 with a budget of 16,000 (each
// knapsack merge is quadratic in the budget) about 3 s, and the
// control-point greedy on the 600-gate DAG several
// seconds.
func cancelRows() []cancelRow {
	small := gen.RandomDAG(13, 16, 600, gen.DAGOptions{})
	smallFaults := fault.CollapsedUniverse(small)
	dag := gen.RandomDAG(7, 16, 1500, gen.DAGOptions{})
	dagFaults := fault.CollapsedUniverse(dag)
	cutTree := balancedTree(15)
	opTree := gen.RandomTree(3, 4000, gen.TreeOptions{})
	opFaults := fault.CollapsedUniverse(opTree)
	c17 := gen.C17()
	c17Faults := fault.CollapsedUniverse(c17)
	xor := redundantXOR(30)
	xorFault := fault.Fault{Gate: xor.Outputs()[0], Pin: -1, Stuck: false}
	ladder := fanInLadder(12000)
	eng := implic.New(dag, implic.Options{})
	endless := fsim.Options{MaxPatterns: 1 << 30}
	lfsr := func() pattern.Source { return pattern.NewLFSR(1) }
	cost := func(s int) int { return 1 + s%3 }
	const dth = 1.0 / 64

	return []cancelRow{
		{"fsim.RunContext", func(ctx context.Context) (any, error) {
			return fsim.RunContext(ctx, small, smallFaults, lfsr(), endless)
		}, checkSimPartial(small, smallFaults)},
		{"fsim.RunParallel", func(ctx context.Context) (any, error) {
			return fsim.RunParallel(ctx, small, smallFaults, lfsr, 2, endless)
		}, checkSimPartial(small, smallFaults)},
		{"atpg.Generate", func(ctx context.Context) (any, error) {
			return atpg.Generate(ctx, xor, xorFault, atpg.Options{BacktrackLimit: 1 << 30})
		}, nil},
		{"atpg.GenerateTestsContext", func(ctx context.Context) (any, error) {
			return atpg.GenerateTestsContext(ctx, dag, dagFaults, atpg.Options{})
		}, checkTestSetPartial(dag)},
		{"implic.NewContext", func(ctx context.Context) (any, error) {
			return implic.NewContext(ctx, dag, implic.Options{})
		}, checkNoEngine},
		{"implic.NewContext/dominators", func(ctx context.Context) (any, error) {
			return implic.NewContext(ctx, ladder, implic.Options{})
		}, checkNoEngine},
		{"implic.Engine.Redundant", func(ctx context.Context) (any, error) {
			return eng.Redundant(ctx)
		}, nil},
		{"tpi.PlanCutsDPContext", func(ctx context.Context) (any, error) {
			return tpi.PlanCutsDPContext(ctx, cutTree, 16)
		}, nil},
		{"tpi.PlanCutsDPWithCost", func(ctx context.Context) (any, error) {
			return tpi.PlanCutsDPWithCost(ctx, cutTree, 16, cost)
		}, nil},
		{"tpi.PlanObservationPointsDPContext", func(ctx context.Context) (any, error) {
			return tpi.PlanObservationPointsDPContext(ctx, opTree, opFaults, 64, dth, tpi.OPOptions{})
		}, nil},
		{"tpi.PlanObservationPointsDPContext/large-budget", func(ctx context.Context) (any, error) {
			return tpi.PlanObservationPointsDPContext(ctx, c17, c17Faults, 16000, dth, tpi.OPOptions{})
		}, nil},
		{"tpi.PlanControlPointsGreedyContext", func(ctx context.Context) (any, error) {
			return tpi.PlanControlPointsGreedyContext(ctx, small, smallFaults, 32, dth, tpi.CPOptions{MaxCandidates: 512})
		}, nil},
		{"tpi.PlanHybridContext", func(ctx context.Context) (any, error) {
			return tpi.PlanHybridContext(ctx, dag, dagFaults, 3, 4, dth, tpi.CPOptions{}, tpi.OPOptions{})
		}, nil},
		{"lint.Analyze", func(ctx context.Context) (any, error) {
			return lint.Analyze(ctx, dag, lint.Options{})
		}, nil},
		{"repro.Simulate", func(ctx context.Context) (any, error) {
			return Simulate(ctx, small, smallFaults, lfsr(), endless)
		}, checkSimPartial(small, smallFaults)},
		{"repro.PlanTestPoints", func(ctx context.Context) (any, error) {
			return PlanTestPoints(ctx, dag, dagFaults, 3, 4, dth)
		}, nil},
		{"repro.GenerateTests", func(ctx context.Context) (any, error) {
			return GenerateTests(ctx, dag, dagFaults, ATPGOptions{})
		}, checkTestSetPartial(dag)},
	}
}

// checkSimPartial validates a cancelled fault simulation's partial
// result: it covers whole 64-pattern blocks, and every detection in it
// matches an uncancelled run over the same number of patterns.
func checkSimPartial(c *netlist.Circuit, faults []fault.Fault) func(*testing.T, any) {
	return func(t *testing.T, partial any) {
		res := partial.(*fsim.Result)
		if res == nil {
			t.Fatal("no partial result")
		}
		if res.Patterns%64 != 0 {
			t.Errorf("partial result covers %d patterns, not whole blocks", res.Patterns)
		}
		if res.Patterns == 0 {
			if len(res.FirstDetect) != 0 {
				t.Errorf("%d detections over zero patterns", len(res.FirstDetect))
			}
			return
		}
		ref, err := fsim.Run(c, faults, pattern.NewLFSR(1), fsim.Options{MaxPatterns: res.Patterns})
		if err != nil {
			t.Fatal(err)
		}
		for f, idx := range res.FirstDetect {
			if want, ok := ref.FirstDetect[f]; !ok || want != idx {
				t.Errorf("fault %v first detected at %d in the partial result, want %d (detected %v)", f, idx, want, ok)
			}
		}
	}
}

// checkNoEngine checks that a cancelled implication build hands back no
// engine.
func checkNoEngine(t *testing.T, partial any) {
	if e := partial.(*implic.Engine); e != nil {
		t.Error("a cancelled build returned an engine")
	}
}

// checkTestSetPartial validates a cancelled test generation's partial
// test set: every fault it reports detected is detected by its vectors.
func checkTestSetPartial(c *netlist.Circuit) func(*testing.T, any) {
	return func(t *testing.T, partial any) {
		ts := partial.(*atpg.TestSet)
		if ts == nil {
			t.Fatal("no partial test set")
		}
		if len(ts.Detected) == 0 {
			return
		}
		res, err := fsim.Run(c, ts.Detected, pattern.NewVectors(ts.Vectors), fsim.Options{MaxPatterns: len(ts.Vectors)})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.FirstDetect) != len(ts.Detected) {
			t.Errorf("the partial test set's %d vectors detect %d of its %d detected faults",
				len(ts.Vectors), len(res.FirstDetect), len(ts.Detected))
		}
	}
}

// redundantXOR returns z = AND(XOR(x...), XNOR(x...)), which is constant
// 0. Its output stuck-at-0 is redundant, and PODEM can only prove that by
// trying all 2^width input assignments: XOR and XNOR stay unknown until
// every input is set.
func redundantXOR(width int) *netlist.Circuit {
	b := netlist.NewBuilder("redundant-xor")
	xs := make([]int, width)
	for i := range xs {
		xs[i] = b.Input(fmt.Sprintf("x%d", i))
	}
	b.MarkOutput(b.AndGate("z", b.XorGate("p", xs...), b.XnorGate("q", xs...)))
	return b.MustBuild()
}

// fanInLadder returns a circuit whose dominator fixpoint is quadratic:
// n inputs feed both a head AND gate and a tail AND gate, joined by a
// chain of n inverters. Finding each input's dominator walks the whole
// chain, so the fixpoint costs n^2 steps before the first learning
// sweep starts.
func fanInLadder(n int) *netlist.Circuit {
	b := netlist.NewBuilder("fan-in-ladder")
	xs := make([]int, n)
	for i := range xs {
		xs[i] = b.Input(fmt.Sprintf("x%d", i))
	}
	chain := b.AndGate("head", xs...)
	for i := 0; i < n; i++ {
		chain = b.NotGate(fmt.Sprintf("c%d", i), chain)
	}
	b.MarkOutput(b.AndGate("tail", append([]int{chain}, xs...)...))
	return b.MustBuild()
}

// balancedTree returns a complete binary tree of 2^depth inputs whose
// levels alternate AND and OR: a fanout-free unate circuit for the cut
// DP that, unlike gen.RandomTree, builds in linear time.
func balancedTree(depth int) *netlist.Circuit {
	b := netlist.NewBuilder("balanced-tree")
	level := make([]int, 1<<depth)
	for i := range level {
		level[i] = b.Input(fmt.Sprintf("x%d", i))
	}
	for d := 0; len(level) > 1; d++ {
		next := make([]int, len(level)/2)
		for i := range next {
			name := fmt.Sprintf("g%d_%d", d, i)
			if d%2 == 0 {
				next[i] = b.AndGate(name, level[2*i], level[2*i+1])
			} else {
				next[i] = b.OrGate(name, level[2*i], level[2*i+1])
			}
		}
		level = next
	}
	b.MarkOutput(level[0])
	return b.MustBuild()
}
