package implic_test

import (
	"context"
	"testing"

	"repro/internal/atpg"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/implic"
	"repro/internal/netlist"
)

// benchCircuits are the largest generator outputs, matching the sizes
// the E-series experiments plan over.
func benchCircuits() map[string]*netlist.Circuit {
	return map[string]*netlist.Circuit{
		"mul8":     gen.Multiplier(8),
		"bshift32": gen.BarrelShifter(32),
		"alu16":    gen.ALUSlice(16),
		"dag600":   gen.RandomDAG(42, 24, 600, gen.DAGOptions{}),
		"rpr":      gen.RPResistant(7, 6, 10, 4),
	}
}

// BenchmarkBuild measures full engine construction: direct sweep,
// learning rounds, dominators and the redundancy pass.
func BenchmarkBuild(b *testing.B) {
	for name, c := range benchCircuits() {
		b.Run(name, func(b *testing.B) {
			var st implic.Stats
			for i := 0; i < b.N; i++ {
				st = implic.New(c, implic.Options{}).Stats()
			}
			b.ReportMetric(float64(st.Gates), "gates")
			b.ReportMetric(float64(st.Implications), "implications")
			b.ReportMetric(float64(st.Learned), "learned")
		})
	}
}

// BenchmarkBuildDirectOnly isolates the cost of learning by building
// with the contrapositive rounds disabled.
func BenchmarkBuildDirectOnly(b *testing.B) {
	for name, c := range benchCircuits() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				implic.New(c, implic.Options{LearnRounds: -1})
			}
		})
	}
}

// benchmarkPODEM runs full-universe test generation and reports total
// backtracks, with or without the learned-implication pruning.
func benchmarkPODEM(b *testing.B, c *netlist.Circuit, eng *implic.Engine) {
	faults := fault.Universe(c)
	backs := 0
	for i := 0; i < b.N; i++ {
		backs = 0
		for _, f := range faults {
			res, err := atpg.Generate(context.Background(), c, f, atpg.Options{Learn: eng})
			if err != nil {
				b.Fatal(err)
			}
			backs += res.Backtracks
		}
	}
	b.ReportMetric(float64(backs), "backtracks")
	b.ReportMetric(float64(len(faults)), "faults")
}

// BenchmarkPODEMBaseline generates tests for the full universe without
// implication assistance.
func BenchmarkPODEMBaseline(b *testing.B) {
	for name, c := range benchCircuits() {
		b.Run(name, func(b *testing.B) {
			benchmarkPODEM(b, c, nil)
		})
	}
}

// BenchmarkPODEMLearned is the same generation with the engine's
// learned implications pruning the search. The engine build is outside
// the timed loop: it is shared across all faults of a circuit in real
// flows.
func BenchmarkPODEMLearned(b *testing.B) {
	for name, c := range benchCircuits() {
		eng := implic.New(c, implic.Options{})
		b.Run(name, func(b *testing.B) {
			benchmarkPODEM(b, c, eng)
		})
	}
}
