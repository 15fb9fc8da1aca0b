// Package tpi implements the paper's contribution: budget-constrained
// test point insertion by dynamic programming.
//
// Two planners are provided, matching the two problems DESIGN.md
// reconstructs from the 1987 paper:
//
//   - P1 (PlanCutsDP and friends): insert at most K full test points
//     (cuts) into a fanout-free circuit to minimise the minimax segment
//     test count under the Hayes–Friedman theory (internal/testcount).
//     The DP is exact; greedy, random, and exhaustive baselines accompany
//     it.
//
//   - P2 (PlanObservationPoints and friends): insert at most K observation
//     points to maximise the number of faults whose random-pattern
//     detection probability reaches a threshold. Exact on fanout-free
//     circuits by a tree DP; on general circuits the same DP runs per
//     fanout-free region with a knapsack allocation across regions (the
//     problem itself is NP-complete there, see internal/npc).
package tpi

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/netlist"
	"repro/internal/testcount"
)

// CutPlan is the result of a P1 planning run.
type CutPlan struct {
	// Cuts lists the signals receiving full test points.
	Cuts []int
	// MaxCost is the resulting minimax segment test count.
	MaxCost int
	// BaseCost is the test count of the unmodified circuit.
	BaseCost int
	// StatesVisited counts DP states (or configurations, for the
	// exhaustive planner) examined, the work measure used by E6.
	StatesVisited int64
}

// TestPoints renders the plan as netlist rewrites.
func (p *CutPlan) TestPoints() []netlist.TestPoint {
	pts := make([]netlist.TestPoint, len(p.Cuts))
	for i, s := range p.Cuts {
		pts[i] = netlist.TestPoint{Signal: s, Kind: netlist.FullCut}
	}
	return pts
}

// ErrBudgetNegative is returned for a negative test point budget.
var ErrBudgetNegative = errors.New("tpi: negative test point budget")

// CostFunc assigns an insertion cost to a signal (in integer cost
// units). UnitCost charges 1 per test point, reducing the weighted
// problem to the plain budget-of-K form.
type CostFunc func(signal int) int

// UnitCost charges one unit per test point.
func UnitCost(int) int { return 1 }

// PlanCutsDP computes an optimal placement of at most k full test points
// in a fanout-free unate circuit, minimising the resulting minimax segment
// test count. It binary-searches the feasibility threshold T and, for
// each T, runs an exact Pareto-set dynamic program over the forest that
// computes the minimum number of cuts keeping every segment's test count
// at or below T.
func PlanCutsDP(c *netlist.Circuit, k int) (*CutPlan, error) {
	return PlanCutsDPContext(context.Background(), c, k)
}

// PlanCutsDPContext is PlanCutsDP under ctx: the context is checked once
// per node of each feasibility DP, and the plan is abandoned with
// ctx.Err() once it is done.
func PlanCutsDPContext(ctx context.Context, c *netlist.Circuit, k int) (*CutPlan, error) {
	return PlanCutsDPWithCost(ctx, c, k, UnitCost)
}

// PlanCutsDPWithCost is PlanCutsDPContext under a per-signal cost model:
// the plan's total insertion cost (sum of cost(signal) over cuts) may not
// exceed the budget. The DP's cut dimension simply carries cost instead
// of count, so optimality is preserved. Costs must be positive.
func PlanCutsDPWithCost(ctx context.Context, c *netlist.Circuit, budget int, cost CostFunc) (*CutPlan, error) {
	plan, err := newCutPlan(c, budget)
	if err != nil {
		return nil, err
	}
	for id := 0; id < c.NumGates(); id++ {
		if cost(id) <= 0 {
			return nil, fmt.Errorf("tpi: cost of signal %d is %d; costs must be positive", id, cost(id))
		}
	}
	bestT, cuts, err := searchThreshold(plan.BaseCost, budget, func(T int) ([]int, bool, error) {
		dp := newCutDP(c, T, cost)
		cuts, ok, err := dp.solve(ctx, budget)
		plan.StatesVisited += dp.states
		return cuts, ok, err
	})
	if err != nil {
		return nil, err
	}
	plan.MaxCost = bestT
	// bestT == BaseCost is achieved with zero cuts.
	if bestT < plan.BaseCost {
		plan.Cuts = cuts
		sort.Ints(plan.Cuts)
	}
	return plan, nil
}

// newCutPlan is the P1 planners' shared set-up: it rejects a negative
// budget and scores the unmodified circuit, which must be fanout-free
// and unate.
func newCutPlan(c *netlist.Circuit, k int) (*CutPlan, error) {
	if k < 0 {
		return nil, ErrBudgetNegative
	}
	base, err := testcount.Compute(c)
	if err != nil {
		return nil, err
	}
	return &CutPlan{BaseCost: base.CircuitTests()}, nil
}

// searchThreshold binary-searches the smallest segment test count T in
// [2, base] (no segment needs fewer than 2 tests) that feasible accepts
// within a budget of k, and returns it with the cuts feasible found for
// it. Feasibility is monotone in T. With k == 0, or when no T below
// base is accepted, it returns base and no cuts, which the unmodified
// circuit achieves.
func searchThreshold(base, k int, feasible func(T int) (cuts []int, ok bool, err error)) (int, []int, error) {
	bestT := base
	var bestCuts []int
	if k == 0 {
		return bestT, nil, nil
	}
	for lo, hi := 2, base; lo <= hi; {
		mid := (lo + hi) / 2
		cuts, ok, err := feasible(mid)
		if err != nil {
			return 0, nil, err
		}
		if ok {
			bestT, bestCuts = mid, cuts
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	return bestT, bestCuts, nil
}

// cutState is one Pareto point of the DP: using k cuts strictly below the
// current position, the open segment so far needs t0/t1 zero- and
// one-tests. prev/choice thread the reconstruction chain: prev indexes
// the partial state before this node's latest child was merged, choice
// indexes the chosen export of that child.
type cutState struct {
	k, t0, t1    int
	prev, choice int32
}

// export is one way a child subtree presents itself to its parent: either
// uncut (contributing its open-segment counts) or cut (contributing a
// fresh leaf and one more cut). stateIdx points into the child's final
// state list for reconstruction.
type export struct {
	k, t0, t1 int
	cut       bool
	stateIdx  int32
}

// cutDP carries one feasibility run at threshold T.
type cutDP struct {
	c      *netlist.Circuit
	T      int
	cost   CostFunc
	states int64
	// final[n] is the Pareto state set of node n (open segment rooted at
	// n); chains[n] stores all partial states created while merging n's
	// children, referenced by prev indices.
	final  [][]cutState
	chains [][]cutState
}

func newCutDP(c *netlist.Circuit, T int, cost CostFunc) *cutDP {
	return &cutDP{
		c:      c,
		T:      T,
		cost:   cost,
		final:  make([][]cutState, c.NumGates()),
		chains: make([][]cutState, c.NumGates()),
	}
}

// solve returns a cut set achieving every segment cost <= T using at most
// k cuts, or ok=false if none exists. It returns ctx.Err() once ctx is
// done, checked before each node.
func (dp *cutDP) solve(ctx context.Context, k int) (cuts []int, ok bool, err error) {
	c := dp.c
	for _, id := range c.TopoOrder() {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		dp.computeNode(id)
	}
	// The forest is feasible iff the summed per-root minima fit in k.
	need := 0
	for _, o := range c.Outputs() {
		best := -1
		for _, st := range dp.final[o] {
			if best < 0 || st.k < best {
				best = st.k
			}
		}
		if best < 0 {
			return nil, false, nil // root segment cannot meet T at all
		}
		need += best
	}
	if need > k {
		return nil, false, nil
	}
	for _, o := range c.Outputs() {
		bestIdx := -1
		for i, st := range dp.final[o] {
			if bestIdx < 0 || st.k < dp.final[o][bestIdx].k {
				bestIdx = i
			}
		}
		dp.reconstruct(o, int32(bestIdx), &cuts)
	}
	return cuts, true, nil
}

// computeNode fills final[id] from the children's state sets.
func (dp *cutDP) computeNode(id int) {
	c := dp.c
	g := c.Gate(id)
	if g.Type == netlist.Input {
		dp.final[id] = []cutState{{k: 0, t0: 1, t1: 1, prev: -1, choice: -1}}
		dp.states++
		return
	}
	rule := testcount.Rule(g.Type)
	// Identity partial: nothing merged yet.
	partials := []cutState{{k: 0, t0: 0, t1: 0, prev: -1, choice: -1}}
	chainBase := 0
	dp.chains[id] = append(dp.chains[id][:0], partials...)
	for _, child := range g.Fanin {
		exports := dp.exportsOf(child)
		var next []cutState
		for pi, p := range partials {
			for ei, e := range exports {
				t0, t1 := rule.Merge(p.t0, p.t1, e.t0, e.t1)
				if t0+t1 > dp.T {
					continue // monotone upward: never feasible later
				}
				next = append(next, cutState{
					k: p.k + e.k, t0: t0, t1: t1,
					prev:   int32(chainBase + pi),
					choice: int32(ei),
				})
			}
		}
		next = paretoPrune(next)
		dp.states += int64(len(next))
		chainBase = len(dp.chains[id])
		dp.chains[id] = append(dp.chains[id], next...)
		partials = next
		if len(partials) == 0 {
			break
		}
	}
	// The output transform (a swap on inverting gates) changes only t
	// values, so the chain indices stay valid.
	finals := make([]cutState, len(partials))
	for i, p := range partials {
		p.t0, p.t1 = rule.Out(p.t0, p.t1)
		finals[i] = p
	}
	dp.final[id] = finals
}

// exportsOf lists the ways child `child` can contribute: all of its final
// states uncut, plus (if any state exists) the single best cut option.
func (dp *cutDP) exportsOf(child int) []export {
	fin := dp.final[child]
	exports := make([]export, 0, len(fin)+1)
	bestK, bestIdx := -1, -1
	for i, st := range fin {
		exports = append(exports, export{k: st.k, t0: st.t0, t1: st.t1, stateIdx: int32(i)})
		if bestK < 0 || st.k < bestK {
			bestK, bestIdx = st.k, i
		}
	}
	if bestIdx >= 0 {
		exports = append(exports, export{k: bestK + dp.cost(child), t0: 1, t1: 1, cut: true, stateIdx: int32(bestIdx)})
	}
	return exports
}

// reconstruct walks the chain of node `id` from final state `idx`,
// emitting cut decisions into *cuts and recursing into children.
func (dp *cutDP) reconstruct(id int, idx int32, cuts *[]int) {
	g := dp.c.Gate(id)
	if g.Type == netlist.Input {
		return
	}
	// The final state at position idx corresponds to the partial chain
	// entry with the same (k, prev, choice) fields; walk prev pointers,
	// one child per hop, last child first.
	st := dp.final[id][idx]
	childIdx := len(g.Fanin) - 1
	for st.prev >= 0 {
		child := g.Fanin[childIdx]
		exports := dp.exportsOf(child)
		e := exports[st.choice]
		if e.cut {
			*cuts = append(*cuts, child)
		}
		dp.reconstruct(child, e.stateIdx, cuts)
		st = dp.chains[id][st.prev]
		childIdx--
	}
}

// paretoPrune removes dominated states: state a dominates b when
// a.k <= b.k, a.t0 <= b.t0, a.t1 <= b.t1 (with at least one strict or
// equal-on-all, keeping one representative).
func paretoPrune(states []cutState) []cutState {
	if len(states) <= 1 {
		return states
	}
	sort.Slice(states, func(i, j int) bool {
		a, b := states[i], states[j]
		if a.k != b.k {
			return a.k < b.k
		}
		if a.t0 != b.t0 {
			return a.t0 < b.t0
		}
		return a.t1 < b.t1
	})
	var kept []cutState
	for _, s := range states {
		dominated := false
		for _, q := range kept {
			if q.k <= s.k && q.t0 <= s.t0 && q.t1 <= s.t1 {
				dominated = true
				break
			}
		}
		if !dominated {
			kept = append(kept, s)
		}
	}
	return kept
}

// PlanCutsGreedy places up to k cuts one at a time, each time choosing
// the single signal whose cut most reduces the current minimax segment
// cost (ties to the lower signal ID). It stops early when no single cut
// improves the cost. Suboptimal in general — the E2/E8 comparisons
// quantify the gap against the DP.
func PlanCutsGreedy(c *netlist.Circuit, k int) (*CutPlan, error) {
	plan, err := newCutPlan(c, k)
	if err != nil {
		return nil, err
	}
	candidates := internalSignals(c)
	cur := plan.BaseCost
	var cuts []int
	for len(cuts) < k {
		bestCost, bestSig := cur, -1
		for _, id := range candidates {
			if containsInt(cuts, id) {
				continue
			}
			an, err := testcount.AnalyzeCuts(c, append(cuts[:len(cuts):len(cuts)], id))
			if err != nil {
				return nil, err
			}
			plan.StatesVisited++
			if an.MaxCost < bestCost {
				bestCost, bestSig = an.MaxCost, id
			}
		}
		if bestSig < 0 {
			break
		}
		cuts = append(cuts, bestSig)
		cur = bestCost
	}
	sort.Ints(cuts)
	plan.Cuts = cuts
	plan.MaxCost = cur
	return plan, nil
}

// PlanCutsExhaustive tries every subset of up to k cut signals and keeps
// the best. Exponential; the ground truth for small circuits (E2) and
// for property-testing the DP.
func PlanCutsExhaustive(c *netlist.Circuit, k int) (*CutPlan, error) {
	return PlanCutsExhaustiveWithCost(c, k, UnitCost)
}

// PlanCutsExhaustiveWithCost is the weighted ground truth: every subset
// whose summed cost fits the budget is evaluated.
func PlanCutsExhaustiveWithCost(c *netlist.Circuit, k int, cost CostFunc) (*CutPlan, error) {
	plan, err := newCutPlan(c, k)
	if err != nil {
		return nil, err
	}
	plan.MaxCost = plan.BaseCost
	candidates := internalSignals(c)
	cur := make([]int, 0, k)
	var rec func(start, spent int)
	rec = func(start, spent int) {
		if len(cur) > 0 {
			an, err := testcount.AnalyzeCuts(c, cur)
			if err == nil {
				plan.StatesVisited++
				if an.MaxCost < plan.MaxCost {
					plan.MaxCost = an.MaxCost
					plan.Cuts = append(plan.Cuts[:0], cur...)
				}
			}
		}
		for i := start; i < len(candidates); i++ {
			cc := cost(candidates[i])
			if spent+cc > k {
				continue
			}
			cur = append(cur, candidates[i])
			rec(i+1, spent+cc)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0, 0)
	sort.Ints(plan.Cuts)
	return plan, nil
}

// PlanCutsRandom places k cuts uniformly at random over internal signals,
// the null-hypothesis baseline.
func PlanCutsRandom(c *netlist.Circuit, k int, seed int64) (*CutPlan, error) {
	plan, err := newCutPlan(c, k)
	if err != nil {
		return nil, err
	}
	candidates := internalSignals(c)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
	if k > len(candidates) {
		k = len(candidates)
	}
	plan.Cuts = append(plan.Cuts, candidates[:k]...)
	sort.Ints(plan.Cuts)
	an, err := testcount.AnalyzeCuts(c, plan.Cuts)
	if err != nil {
		return nil, err
	}
	plan.MaxCost = an.MaxCost
	return plan, nil
}

// internalSignals lists the cut baselines' candidate signals in ID
// order: every signal that is neither a primary input nor a primary
// output.
func internalSignals(c *netlist.Circuit) []int {
	var ids []int
	for id := 0; id < c.NumGates(); id++ {
		if c.Type(id) != netlist.Input && !c.IsOutput(id) {
			ids = append(ids, id)
		}
	}
	return ids
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// VerifyCutPlan recomputes the minimax cost of a plan's cut set directly
// from the test-count recurrences, guarding against planner bugs.
func VerifyCutPlan(c *netlist.Circuit, plan *CutPlan) error {
	an, err := testcount.AnalyzeCuts(c, plan.Cuts)
	if err != nil {
		return err
	}
	if an.MaxCost != plan.MaxCost {
		return fmt.Errorf("tpi: plan claims max cost %d but cuts yield %d", plan.MaxCost, an.MaxCost)
	}
	return nil
}
