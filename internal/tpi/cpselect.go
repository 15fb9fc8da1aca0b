package tpi

import (
	"context"
	"math"
	"sort"

	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/progress"
	"repro/internal/testability"
)

// CPPlan is the result of a control point selection run.
type CPPlan struct {
	// Points lists the selected control points (signals in the original
	// circuit, kinds Control0/Control1).
	Points []netlist.TestPoint
	// CoveredBefore/CoveredAfter count faults whose COP-estimated
	// detection probability meets the threshold without/with the plan.
	CoveredBefore, CoveredAfter int
	// TotalFaults is the size of the targeted fault list.
	TotalFaults int
	// Evaluations counts candidate circuit evaluations performed.
	Evaluations int64
}

// CPOptions configures control point selection.
type CPOptions struct {
	// MaxCandidates caps the number of candidate signals evaluated per
	// iteration (0 = 64). Candidates are drawn from the fanin cones of
	// the hard faults and ranked by signal-probability extremity, the
	// classic quick filter: lines pinned near 0 or 1 are the ones whose
	// forcing unlocks excitation and propagation.
	MaxCandidates int
	// COP configures the probability analysis.
	COP testability.COPOptions
}

// PlanControlPointsGreedy selects up to k control points, each iteration
// inserting the single AND-type (force-0) or OR-type (force-1) control
// point that raises the number of faults meeting the detection threshold
// the most under a full COP re-analysis of the candidate-modified
// circuit. Control test inputs are assumed driven by fresh equiprobable
// BIST inputs.
//
// Control point selection is where the NP-completeness bites (control
// points interact through shared fanout cones), so this is a heuristic by
// design; the 1987 DP applies to the problems in cutdp.go and opdp.go.
func PlanControlPointsGreedy(c *netlist.Circuit, faults []fault.Fault, k int, dth float64, opts CPOptions) (*CPPlan, error) {
	return PlanControlPointsGreedyContext(context.Background(), c, faults, k, dth, opts)
}

// PlanControlPointsGreedyContext is PlanControlPointsGreedy under ctx:
// the context is checked once per hard fault while collecting candidates
// and once per candidate signal while scoring them (the unit of work
// that dominates the greedy loop), and the plan is abandoned with
// ctx.Err() once it is done.
func PlanControlPointsGreedyContext(ctx context.Context, c *netlist.Circuit, faults []fault.Fault, k int, dth float64, opts CPOptions) (*CPPlan, error) {
	if k < 0 {
		return nil, ErrBudgetNegative
	}
	maxCand := opts.MaxCandidates
	if maxCand <= 0 {
		maxCand = 64
	}
	plan := &CPPlan{TotalFaults: len(faults)}
	co := testability.NewCOP(c, opts.COP)
	plan.CoveredBefore = countCovered(co, faults, dth)
	covered := plan.CoveredBefore

	report := progress.FromContext(ctx)
	var points []netlist.TestPoint
	cur := c
	for len(points) < k {
		if report != nil {
			report("control-points", int64(len(points)), int64(k))
		}
		candidates, err := controlCandidates(ctx, cur, co, faults, dth, maxCand)
		if err != nil {
			return nil, err
		}
		bestGain := 0
		var bestPoint netlist.TestPoint
		var bestCircuit *netlist.Circuit
		var bestCOP *testability.COP
		for _, s := range candidates {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for _, kind := range []netlist.TestPointKind{netlist.Control0, netlist.Control1} {
				mod, err := cur.InsertTestPoints([]netlist.TestPoint{{Signal: s, Kind: kind}})
				if err != nil {
					return nil, err
				}
				plan.Evaluations++
				mco := testability.NewCOP(mod, opts.COP)
				if v := countCovered(mco, faults, dth); v-covered > bestGain {
					bestGain = v - covered
					bestPoint = netlist.TestPoint{Signal: s, Kind: kind}
					bestCircuit = mod
					bestCOP = mco
				}
			}
		}
		if bestGain == 0 {
			break
		}
		points = append(points, bestPoint)
		cur = bestCircuit
		co = bestCOP
		covered += bestGain
	}
	plan.Points = points
	plan.CoveredAfter = covered
	return plan, nil
}

// countCovered counts faults whose estimated detection probability meets
// the threshold. The fault list refers to original gate IDs, which
// InsertTestPoints preserves in modified circuits.
func countCovered(co *testability.COP, faults []fault.Fault, dth float64) int {
	n := 0
	for _, f := range faults {
		if co.DetectProb(f) >= dth {
			n++
		}
	}
	return n
}

// controlCandidates returns candidate control point signals: members of
// the fanin cones of currently-hard faults, ranked by how extreme their
// signal probability is, capped at maxCand. Marking the cones costs a
// cone walk per hard fault, so ctx is checked once per hard fault.
func controlCandidates(ctx context.Context, c *netlist.Circuit, co *testability.COP, faults []fault.Fault, dth float64, maxCand int) ([]int, error) {
	inCone := make(map[int]bool)
	for _, f := range faults {
		if co.DetectProb(f) >= dth {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, g := range c.FaninCone(f.Gate) {
			inCone[g] = true
		}
		// The fanout cone matters too: forcing a line downstream of the
		// fault site can unblock propagation.
		for _, g := range c.FanoutCone(f.Gate) {
			inCone[g] = true
		}
	}
	cand := make([]int, 0, len(inCone))
	for g := range inCone {
		if c.Type(g) == netlist.Input {
			continue // forcing a BIST-driven PI adds nothing
		}
		cand = append(cand, g)
	}
	sort.Slice(cand, func(i, j int) bool {
		ei := math.Abs(co.Controllability(cand[i]) - 0.5)
		ej := math.Abs(co.Controllability(cand[j]) - 0.5)
		if ei != ej {
			return ei > ej
		}
		return cand[i] < cand[j]
	})
	if len(cand) > maxCand {
		cand = cand[:maxCand]
	}
	return cand, nil
}
