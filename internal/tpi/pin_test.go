package tpi

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/netlist"
)

// pinCase runs one planner on one seeded circuit and renders every
// field of the plan that a caller can see.
type pinCase struct {
	name string
	run  func() (string, error)
}

func renderCut(p *CutPlan, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("cuts=%v max=%d base=%d states=%d", p.Cuts, p.MaxCost, p.BaseCost, p.StatesVisited), nil
}

func renderOP(p *OPPlan, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("points=%v covered=%d->%d of %d states=%d",
		p.Points, p.CoveredBefore, p.CoveredAfter, p.TotalFaults, p.StatesVisited), nil
}

func pinCases() []pinCase {
	tree := func(seed int64, leaves, fanin int) *netlist.Circuit {
		return gen.RandomTree(seed, leaves, gen.TreeOptions{MaxFanin: fanin})
	}
	dag := func(seed int64, gates int) *netlist.Circuit {
		return gen.RandomDAG(seed, 16, gates, gen.DAGOptions{})
	}
	cost := func(s int) int { return 1 + s%3 }
	ctx := context.Background()
	cut := func(name string, c *netlist.Circuit, plan func(*netlist.Circuit) (*CutPlan, error)) pinCase {
		return pinCase{name, func() (string, error) { return renderCut(plan(c)) }}
	}
	op := func(name string, c *netlist.Circuit, k int, dth float64,
		plan func(*netlist.Circuit, []fault.Fault, int, float64, OPOptions) (*OPPlan, error)) pinCase {
		return pinCase{name, func() (string, error) {
			return renderOP(plan(c, fault.CollapsedUniverse(c), k, dth, OPOptions{}))
		}}
	}
	hybrid := func(name string, c *netlist.Circuit, nCP, nOP int, dth float64) pinCase {
		return pinCase{name, func() (string, error) {
			h, err := PlanHybrid(c, fault.CollapsedUniverse(c), nCP, nOP, dth, CPOptions{}, OPOptions{})
			if err != nil {
				return "", err
			}
			op, _ := renderOP(h.Observe, nil)
			return fmt.Sprintf("control=%v covered=%d->%d evals=%d pruned=%d observe: %s",
				h.Control.Points, h.Control.CoveredBefore, h.Control.CoveredAfter, h.Control.Evaluations,
				h.PrunedFaults, op), nil
		}}
	}
	return []pinCase{
		cut("dp/tree1-80/k5", tree(1, 80, 0), func(c *netlist.Circuit) (*CutPlan, error) { return PlanCutsDP(c, 5) }),
		cut("dp/tree2-200f3/k8", tree(2, 200, 3), func(c *netlist.Circuit) (*CutPlan, error) { return PlanCutsDP(c, 8) }),
		cut("weighted/tree3-60/b7", tree(3, 60, 0), func(c *netlist.Circuit) (*CutPlan, error) {
			return PlanCutsDPWithCost(ctx, c, 7, cost)
		}),
		cut("weighted/tree2-200f3/b12", tree(2, 200, 3), func(c *netlist.Circuit) (*CutPlan, error) {
			return PlanCutsDPWithCost(ctx, c, 12, cost)
		}),
		cut("threshold/tree1-80/k5", tree(1, 80, 0), func(c *netlist.Circuit) (*CutPlan, error) { return PlanCutsThreshold(c, 5) }),
		cut("threshold/tree2-200f3/k8", tree(2, 200, 3), func(c *netlist.Circuit) (*CutPlan, error) { return PlanCutsThreshold(c, 8) }),
		cut("greedy/tree4-40/k4", tree(4, 40, 0), func(c *netlist.Circuit) (*CutPlan, error) { return PlanCutsGreedy(c, 4) }),
		op("observe-dp/tree5-120/k6", tree(5, 120, 0), 6, 0.05, PlanObservationPointsDP),
		op("observe-dp/tree6-60/k30", tree(6, 60, 0), 30, 0.2, PlanObservationPointsDP),
		op("observe-dp/dag7-200/k6", dag(7, 200), 6, 1.0/256, PlanObservationPointsDP),
		op("observe-dp/dag8-120/k25", dag(8, 120), 25, 1.0/64, PlanObservationPointsDP),
		op("observe-greedy/tree5-120/k6", tree(5, 120, 0), 6, 0.05, PlanObservationPointsGreedy),
		op("observe-greedy/dag8-120/k4", dag(8, 120), 4, 1.0/64, PlanObservationPointsGreedy),
		hybrid("hybrid/dag9-150", dag(9, 150), 2, 5, 1.0/256),
		hybrid("hybrid/tree10-100", tree(10, 100, 0), 2, 6, 1.0/64),
	}
}

// pinned holds the recorded plans. A planner's tie-breaks (which of
// several optimal plans it returns) and its StatesVisited work count are
// part of its output, so a change to the planners must reproduce them
// exactly or re-record them on purpose.
var pinned = map[string]string{
	"dp/tree1-80/k5":              "cuts=[116 120 122 126 128] max=17 base=46 states=1792",
	"dp/tree2-200f3/k8":           "cuts=[327 341 342 346 351 352 359 360] max=23 base=88 states=5962",
	"weighted/tree3-60/b7":        "cuts=[76 78 79 81 87] max=14 base=45 states=1225",
	"weighted/tree2-200f3/b12":    "cuts=[303 327 336 342 346 351 354 357 360 363] max=20 base=88 states=6865",
	"threshold/tree1-80/k5":       "cuts=[116 121 122 127 128] max=17 base=46 states=374",
	"threshold/tree2-200f3/k8":    "cuts=[327 342 347 351 352 357 359 362] max=23 base=88 states=1274",
	"greedy/tree4-40/k4":          "cuts=[41 46 57 61] max=12 base=25 states=82",
	"observe-dp/tree5-120/k6":     "points=[121 135 168 176 179 188] covered=5->46 of 188 states=10353",
	"observe-dp/tree6-60/k30":     "points=[0 1 2 4 5 9 11 16 18 21 23 26 29 33 41 43 46 51 54 58 60 64 71 73 74 77 79 81 87 88] covered=4->60 of 91 states=16678",
	"observe-dp/dag7-200/k6":      "points=[92 97 101 107 140 151] covered=769->793 of 879 states=1946",
	"observe-dp/dag8-120/k25":     "points=[6 26 27 29 30 35 36 39 44 48 49 54 64 68 78 89 92 98 105 107 108 113 120] covered=391->440 of 523 states=4342",
	"observe-greedy/tree5-120/k6": "points=[121 135 157 168 175 181] covered=5->46 of 188 states=1155",
	"observe-greedy/dag8-120/k4":  "points=[29 30 39 92] covered=391->407 of 523 states=538",
	"hybrid/dag9-150":             "control=[{135 control0} {24 control1}] covered=435->448 evals=256 pruned=183 observe: points=[35 47 58 59 60] covered=448->457 of 463 states=1314",
	"hybrid/tree10-100":           "control=[{153 control1} {107 control1}] covered=8->20 evals=250 pruned=0 observe: points=[109 113 137 146 152 157] covered=20->93 of 157 states=9135",
}

// TestPlansPinned checks the planners' outputs byte for byte against
// the recorded plans.
func TestPlansPinned(t *testing.T) {
	for _, pc := range pinCases() {
		got, err := pc.run()
		if err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		if want, ok := pinned[pc.name]; !ok || got != want {
			t.Errorf("%s:\n got  %q\n want %q", pc.name, got, want)
		}
	}
}
