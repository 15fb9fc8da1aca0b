// Package testability implements analytic testability measures for
// combinational circuits: the COP controllability/observability
// probabilities, per-fault detection probability estimates, the integer
// SCOAP measures, and random-pattern test length estimation. On
// fanout-free circuits the COP probabilities are exact; reconvergent
// fanout introduces the correlation error that motivates validating
// against the fault simulator.
package testability

import (
	"math"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/pattern"
)

// StemCombine selects how branch observabilities merge into a stem
// observability in the presence of fanout.
type StemCombine uint8

const (
	// CombineMax takes the best single branch: a lower bound, the
	// conventional COP choice (a fault propagates at least as well as its
	// best branch).
	CombineMax StemCombine = iota
	// CombineOr treats branches as independent detection events:
	// 1 - Π(1-ob_i), an optimistic estimate under reconvergence.
	CombineOr
)

// COPOptions configures the analysis.
type COPOptions struct {
	// InputProb gives P(input=1) per primary input in Inputs() order;
	// inputs beyond the slice default to 0.5.
	InputProb []float64
	// Combine selects the stem observability rule (default CombineMax).
	Combine StemCombine
}

// COP holds the computed controllability and observability probabilities
// of a circuit.
type COP struct {
	c *netlist.Circuit
	// c1[g] = P(signal g = 1) assuming signal independence.
	c1 []float64
	// obs[g] = P(a value change at g is visible at some primary output).
	obs []float64
	// branchObs[g][pin] = P(change on that fanin branch propagates to a PO
	// through gate g).
	branchObs [][]float64
}

// NewCOP computes the COP measures for the circuit.
func NewCOP(c *netlist.Circuit, opts COPOptions) *COP {
	c1 := make([]float64, c.NumGates())
	for i, in := range c.Inputs() {
		p := 0.5
		if i < len(opts.InputProb) {
			p = opts.InputProb[i]
		}
		c1[in] = p
	}
	for _, id := range c.TopoOrder() {
		g := c.Gate(id)
		if g.Type == netlist.Input {
			continue
		}
		c1[id] = gateProb(g.Type, g.Fanin, c1)
	}
	return newCOPFromC1(c, c1, opts)
}

// NewCOPMeasured computes the measures with signal probabilities taken
// from logic simulation of `patterns` vectors from src rather than from
// the analytic forward pass. Measured controllabilities capture the
// reconvergence correlation the independence assumption misses; the
// backward observability pass still assumes independent side inputs.
func NewCOPMeasured(c *netlist.Circuit, src pattern.Source, patterns int, opts COPOptions) (*COP, error) {
	if patterns <= 0 {
		patterns = 4096
	}
	sim := logic.New(c)
	stats := logic.NewSignalStats(c)
	words := make([]uint64, c.NumInputs())
	applied := 0
	for applied < patterns {
		n := src.FillBlock(words)
		if n == 0 {
			break
		}
		if applied+n > patterns {
			n = patterns - applied
		}
		if err := sim.Run(words); err != nil {
			return nil, err
		}
		stats.Accumulate(sim, n)
		applied += n
	}
	c1 := make([]float64, c.NumGates())
	for id := range c1 {
		c1[id] = stats.Probability(id)
	}
	return newCOPFromC1(c, c1, opts), nil
}

// newCOPFromC1 runs the backward observability pass over given signal
// probabilities.
func newCOPFromC1(c *netlist.Circuit, c1 []float64, opts COPOptions) *COP {
	co := &COP{
		c:         c,
		c1:        c1,
		obs:       make([]float64, c.NumGates()),
		branchObs: make([][]float64, c.NumGates()),
	}
	// Backward pass: observability.
	order := c.TopoOrder()
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		g := c.Gate(id)
		co.branchObs[id] = make([]float64, len(g.Fanin))
	}
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		// Stem observability of id: direct PO observation or via branches.
		var ob float64
		if c.IsOutput(id) {
			ob = 1
		}
		for _, consumer := range c.Fanout(id) {
			cg := c.Gate(consumer)
			for pin, f := range cg.Fanin {
				if f != id {
					continue
				}
				bo := co.pinObservability(consumer, pin) * co.obs[consumer]
				co.branchObs[consumer][pin] = bo
				switch opts.Combine {
				case CombineOr:
					ob = 1 - (1-ob)*(1-bo)
				default:
					if bo > ob {
						ob = bo
					}
				}
			}
		}
		co.obs[id] = ob
	}
	return co
}

// PinObservability returns P(other inputs of the gate are at
// non-controlling values): the local probability that a change on input
// pin `pin` of the gate propagates through the gate, excluding any
// downstream observability factor. Exact on independent inputs.
func (co *COP) PinObservability(gate, pin int) float64 {
	return co.pinObservability(gate, pin)
}

// pinObservability returns P(other inputs of the gate are at
// non-controlling values), the local propagation probability through one
// gate pin (excluding the downstream observability factor).
func (co *COP) pinObservability(gate, pin int) float64 {
	g := co.c.Gate(gate)
	switch g.Type {
	case netlist.Buf, netlist.Not:
		return 1
	case netlist.Xor, netlist.Xnor:
		// A change on one XOR input always flips the output.
		return 1
	case netlist.And, netlist.Nand:
		p := 1.0
		for i, f := range g.Fanin {
			if i != pin {
				p *= co.c1[f]
			}
		}
		return p
	case netlist.Or, netlist.Nor:
		p := 1.0
		for i, f := range g.Fanin {
			if i != pin {
				p *= 1 - co.c1[f]
			}
		}
		return p
	}
	return 0
}

// gateProb computes P(out=1) for a gate given fanin 1-probabilities,
// assuming input independence.
func gateProb(t netlist.GateType, fanin []int, c1 []float64) float64 {
	switch t {
	case netlist.Buf:
		return c1[fanin[0]]
	case netlist.Not:
		return 1 - c1[fanin[0]]
	case netlist.And, netlist.Nand:
		p := 1.0
		for _, f := range fanin {
			p *= c1[f]
		}
		if t == netlist.Nand {
			return 1 - p
		}
		return p
	case netlist.Or, netlist.Nor:
		q := 1.0
		for _, f := range fanin {
			q *= 1 - c1[f]
		}
		if t == netlist.Nor {
			return q
		}
		return 1 - q
	case netlist.Xor, netlist.Xnor:
		// P(odd number of ones) folded pairwise.
		p := 0.0
		for i, f := range fanin {
			q := c1[f]
			if i == 0 {
				p = q
			} else {
				p = p*(1-q) + (1-p)*q
			}
		}
		if t == netlist.Xnor {
			return 1 - p
		}
		return p
	}
	return 0
}

// Controllability returns P(signal = 1).
func (co *COP) Controllability(id int) float64 { return co.c1[id] }

// Observability returns the stem observability of the signal.
func (co *COP) Observability(id int) float64 { return co.obs[id] }

// DetectProb estimates the detection probability of a stuck-at fault
// under one random pattern: P(excite) x P(propagate).
func (co *COP) DetectProb(f fault.Fault) float64 {
	if f.IsStem() {
		exc := co.c1[f.Gate]
		if f.Stuck {
			exc = 1 - exc
		}
		return exc * co.obs[f.Gate]
	}
	driver := co.c.Fanin(f.Gate)[f.Pin]
	exc := co.c1[driver]
	if f.Stuck {
		exc = 1 - exc
	}
	return exc * co.branchObs[f.Gate][f.Pin]
}

// HardFaults returns the faults whose estimated detection probability
// falls below the threshold, i.e. the random-pattern-resistant set.
func (co *COP) HardFaults(faults []fault.Fault, threshold float64) []fault.Fault {
	var out []fault.Fault
	for _, f := range faults {
		if co.DetectProb(f) < threshold {
			out = append(out, f)
		}
	}
	return out
}

// TestLength estimates the number of random patterns needed to detect a
// fault of detection probability p with the given confidence:
// N = ln(1-confidence)/ln(1-p). Returns +Inf for p <= 0.
func TestLength(p, confidence float64) float64 {
	if p <= 0 {
		return math.Inf(1)
	}
	if p >= 1 {
		return 1
	}
	return math.Log(1-confidence) / math.Log(1-p)
}

// EscapeProb returns the probability that a fault with detection
// probability p survives n random patterns: (1-p)^n.
func EscapeProb(p float64, n int) float64 {
	return math.Pow(1-p, float64(n))
}

// ExpectedCoverage estimates the expected fault coverage after n random
// patterns from per-fault detection probabilities: the mean of
// 1-(1-p_i)^n.
func ExpectedCoverage(co *COP, faults []fault.Fault, n int) float64 {
	if len(faults) == 0 {
		return 1
	}
	sum := 0.0
	for _, f := range faults {
		sum += 1 - EscapeProb(co.DetectProb(f), n)
	}
	return sum / float64(len(faults))
}
