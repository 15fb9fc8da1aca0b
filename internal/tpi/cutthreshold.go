package tpi

import (
	"sort"

	"repro/internal/netlist"
	"repro/internal/testcount"
)

// PlanCutsThreshold is the fast near-optimal P1 planner: it binary-
// searches the achievable minimax test count like the DP, but decides
// feasibility with a single bottom-up greedy pass — at each node whose
// open-segment cost exceeds the threshold, the child whose replacement by
// a cut reduces the cost most is cut, repeatedly, until the node fits.
// One pass is O(n · maxFanin²) against the DP's Pareto sets, at the
// price of optimality: the plan is always valid and usually optimal, but
// can exceed the DP on adversarial trees (quantified in E8).
func PlanCutsThreshold(c *netlist.Circuit, k int) (*CutPlan, error) {
	plan, err := newCutPlan(c, k)
	if err != nil {
		return nil, err
	}
	// The greedy pass never fails, so neither does the search.
	_, cuts, _ := searchThreshold(plan.BaseCost, k, func(T int) ([]int, bool, error) {
		cuts, states, ok := thresholdFeasible(c, T, k)
		plan.StatesVisited += states
		return cuts, ok, nil
	})
	plan.Cuts = cuts
	sort.Ints(plan.Cuts)
	// The greedy pass may over- or under-shoot the threshold's nominal
	// value; report the actual achieved cost.
	an, err := testcount.AnalyzeCuts(c, plan.Cuts)
	if err != nil {
		return nil, err
	}
	plan.MaxCost = an.MaxCost
	if plan.MaxCost >= plan.BaseCost {
		plan.Cuts = nil
		plan.MaxCost = plan.BaseCost
	}
	return plan, nil
}

// thresholdFeasible runs the bottom-up greedy pass at threshold T and
// reports the cut set if at most k cuts suffice.
func thresholdFeasible(c *netlist.Circuit, T, k int) (cuts []int, states int64, ok bool) {
	t0 := make([]int, c.NumGates())
	t1 := make([]int, c.NumGates())
	isCut := make([]bool, c.NumGates())
	for _, id := range c.TopoOrder() {
		g := c.Gate(id)
		if g.Type == netlist.Input {
			t0[id], t1[id] = 1, 1
			continue
		}
		rule := testcount.Rule(g.Type)
		eval := func() (int, int) { return rule.Eval(g.Fanin, t0, t1, isCut) }
		v0, v1 := eval()
		states++
		// Cut children greedily while over threshold.
		for v0+v1 > T {
			bestChild, bestCost := -1, v0+v1
			for _, f := range g.Fanin {
				if isCut[f] || c.Type(f) == netlist.Input {
					continue
				}
				isCut[f] = true
				w0, w1 := eval()
				isCut[f] = false
				states++
				if w0+w1 < bestCost {
					bestCost, bestChild = w0+w1, f
				}
			}
			if bestChild < 0 {
				return nil, states, false // no cut reduces this node
			}
			// The cut-off child becomes a closed segment; it satisfied
			// <= T when it was processed (its own subtree was fixed up
			// then), so only the local bookkeeping changes.
			isCut[bestChild] = true
			cuts = append(cuts, bestChild)
			if len(cuts) > k {
				return nil, states, false
			}
			v0, v1 = eval()
		}
		t0[id], t1[id] = v0, v1
	}
	for _, o := range c.Outputs() {
		if t0[o]+t1[o] > T {
			return nil, states, false
		}
	}
	return cuts, states, true
}
