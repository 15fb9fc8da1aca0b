// Package testcount implements the Hayes–Friedman minimal test-set theory
// for fanout-free networks of unate gates, the objective function of the
// reconstructed 1987 dynamic program.
//
// For a fanout-free circuit every fault effect exits its subtree through a
// unique line, which yields exact recurrences for the minimum number of
// tests in a complete single-stuck-at test set. Writing t0(n)/t1(n) for
// the number of tests that must apply 0/1 at line n while sensitizing
// subtree faults:
//
//	leaf:  t0 = t1 = 1
//	AND:   t1 = max_i t1(x_i)   t0 = Σ_i t0(x_i)
//	OR:    t0 = max_i t0(x_i)   t1 = Σ_i t1(x_i)
//	NAND:  t0 = max_i t1(x_i)   t1 = Σ_i t0(x_i)
//	NOR:   t1 = max_i t0(x_i)   t0 = Σ_i t1(x_i)
//	NOT:   t0 = t1(x)           t1 = t0(x)
//	BUF:   identity
//
// The minimal complete test set of the tree rooted at r has exactly
// t0(r) + t1(r) tests. The intuition: a test that sets an AND output to 1
// puts every input at its non-controlling value and therefore sensitizes
// all input subtrees simultaneously (only one can deviate under the
// single-fault assumption), so 1-tests of children run in parallel (max);
// a test that sets the output to 0 sensitizes exactly the one input
// holding controlling 0, so 0-tests serialize (sum).
//
// XOR/XNOR gates are binate and outside the theory; expand them first with
// netlist.ExpandXor (which generally introduces fanout, taking the circuit
// outside the fanout-free class as the original theory requires).
package testcount

import (
	"errors"
	"fmt"

	"repro/internal/netlist"
)

// ErrNotFanoutFree is returned for circuits with fanout.
var ErrNotFanoutFree = errors.New("testcount: circuit is not fanout-free")

// ErrBinateGate is returned for circuits containing XOR/XNOR gates.
var ErrBinateGate = errors.New("testcount: circuit contains binate (XOR/XNOR) gates")

// Counts holds the per-line test counts of a fanout-free circuit.
type Counts struct {
	c      *netlist.Circuit
	T0, T1 []int
}

// Compute evaluates the recurrences over the whole circuit. The circuit
// must be fanout-free and unate.
func Compute(c *netlist.Circuit) (*Counts, error) {
	return computeWithCuts(c, nil)
}

// Total returns t0+t1 of a line: the minimal complete test set size of
// the subtree it roots (when that line is observed).
func (ct *Counts) Total(id int) int { return ct.T0[id] + ct.T1[id] }

// CircuitTests returns the minimal complete test set size for the whole
// circuit: trees rooted at different primary outputs have disjoint leaf
// supports, so their tests merge and the circuit needs max over roots.
func (ct *Counts) CircuitTests() int {
	m := 0
	for _, o := range ct.c.Outputs() {
		if t := ct.Total(o); t > m {
			m = t
		}
	}
	return m
}

// CutAnalysis reports the segment structure induced by a set of full test
// points (cuts).
type CutAnalysis struct {
	// SegmentRoots lists the root line of each segment: every cut signal
	// plus every primary output (deduplicated, cut POs appear once).
	SegmentRoots []int
	// Cost[i] is the minimal test count of segment i.
	Cost []int
	// MaxCost is the circuit test count after insertion: segments have
	// disjoint input supports, so they are tested concurrently.
	MaxCost int
}

// AnalyzeCuts computes per-segment minimal test counts when full test
// points are inserted at the given signals. A cut observes its line
// (closing the segment below) and feeds the logic above from a fresh
// primary input (a new leaf with t0 = t1 = 1).
func AnalyzeCuts(c *netlist.Circuit, cuts []int) (*CutAnalysis, error) {
	ct, err := computeWithCuts(c, cuts)
	if err != nil {
		return nil, err
	}
	isCut := make(map[int]bool, len(cuts))
	for _, s := range cuts {
		isCut[s] = true
	}
	an := &CutAnalysis{}
	for _, s := range cuts {
		an.SegmentRoots = append(an.SegmentRoots, s)
		an.Cost = append(an.Cost, ct.Total(s))
	}
	for _, o := range c.Outputs() {
		if isCut[o] {
			continue // already counted; observing a PO twice adds nothing
		}
		an.SegmentRoots = append(an.SegmentRoots, o)
		an.Cost = append(an.Cost, ct.Total(o))
	}
	for _, t := range an.Cost {
		if t > an.MaxCost {
			an.MaxCost = t
		}
	}
	return an, nil
}

// Rule is the Hayes–Friedman recurrence at a gate of the given type: the
// one place that says which child count sums, which maxes, and whether
// the output swaps t0 and t1. Fold the children one at a time into the
// pair (0, 0) with Merge, then map the folded pair to the gate output
// with Out; Eval does both over a gate's fanins. Inputs (t0 = t1 = 1)
// and binate gates are outside it.
type Rule netlist.GateType

// Merge folds one child's counts (c0, c1) into the folded pair (a0, a1).
// On OR-like gates (OR, NOR) the 1-tests sum and the 0-tests max; on
// the others (AND, NAND, and the single-input BUF and NOT, where sum
// and max of one child are both the child) the 0-tests sum and the
// 1-tests max.
func (r Rule) Merge(a0, a1, c0, c1 int) (int, int) {
	switch netlist.GateType(r) {
	case netlist.Or, netlist.Nor:
		return max(a0, c0), a1 + c1
	}
	return a0 + c0, max(a1, c1)
}

// Out maps the folded pair to the gate output: inverting gates (NAND,
// NOR, NOT) exchange the roles of 0- and 1-tests.
func (r Rule) Out(t0, t1 int) (int, int) {
	switch netlist.GateType(r) {
	case netlist.Nand, netlist.Nor, netlist.Not:
		return t1, t0
	}
	return t0, t1
}

// Eval applies the rule to a gate with the given fanins, reading each
// fanin's counts from t0/t1, or (1, 1) for a fanin marked in cut: a full
// test point turns it into a fresh leaf for the logic above.
func (r Rule) Eval(fanin, t0, t1 []int, cut []bool) (int, int) {
	var v0, v1 int
	for _, f := range fanin {
		if cut[f] {
			v0, v1 = r.Merge(v0, v1, 1, 1)
		} else {
			v0, v1 = r.Merge(v0, v1, t0[f], t1[f])
		}
	}
	return r.Out(v0, v1)
}

// computeWithCuts runs the recurrences, treating cut signals as fresh
// leaves for the logic above them. T0/T1 of a cut signal keep the values
// computed from below (the segment it roots); consumers see (1, 1).
func computeWithCuts(c *netlist.Circuit, cuts []int) (*Counts, error) {
	if !c.IsFanoutFree() {
		return nil, ErrNotFanoutFree
	}
	isCut := make([]bool, c.NumGates())
	for _, s := range cuts {
		if s < 0 || s >= c.NumGates() {
			return nil, fmt.Errorf("testcount: cut signal %d out of range", s)
		}
		isCut[s] = true
	}
	ct := &Counts{
		c:  c,
		T0: make([]int, c.NumGates()),
		T1: make([]int, c.NumGates()),
	}
	for _, id := range c.TopoOrder() {
		g := c.Gate(id)
		switch g.Type {
		case netlist.Input:
			ct.T0[id], ct.T1[id] = 1, 1
			continue
		case netlist.Xor, netlist.Xnor:
			return nil, ErrBinateGate
		}
		ct.T0[id], ct.T1[id] = Rule(g.Type).Eval(g.Fanin, ct.T0, ct.T1, isCut)
	}
	return ct, nil
}
