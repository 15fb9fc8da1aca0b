package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/dsim"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/netlist"
	"repro/internal/pattern"
	"repro/internal/testcount"
	"repro/internal/tpi"
)

// The response shapes the checks read; field names follow the serve
// wire format.

type circuitInfo struct {
	Gates   int `json:"gates"`
	Inputs  int `json:"inputs"`
	Outputs int `json:"outputs"`
}

type pointJSON struct {
	Signal string `json:"signal"`
	Kind   string `json:"kind"`
}

type planResponse struct {
	Circuit       circuitInfo `json:"circuit"`
	Planner       string      `json:"planner"`
	Points        []pointJSON `json:"points"`
	MaxCost       int         `json:"max_cost"`
	CoveredBefore int         `json:"covered_before"`
	CoveredAfter  int         `json:"covered_after"`
	TotalFaults   int         `json:"total_faults"`
}

type detectJSON struct {
	Fault   string `json:"fault"`
	Pattern int    `json:"pattern"`
}

type simResponse struct {
	Circuit     circuitInfo  `json:"circuit"`
	Faults      int          `json:"faults"`
	Patterns    int          `json:"patterns"`
	Detected    int          `json:"detected"`
	Coverage    float64      `json:"coverage"`
	FirstDetect []detectJSON `json:"first_detect"`
	Undetected  []string     `json:"undetected"`
}

type atpgResponse struct {
	Circuit         circuitInfo `json:"circuit"`
	Faults          int         `json:"faults"`
	Vectors         []string    `json:"vectors"`
	Detected        int         `json:"detected"`
	Redundant       int         `json:"redundant"`
	Aborted         int         `json:"aborted"`
	RedundantFaults []string    `json:"redundant_faults"`
	AbortedFaults   []string    `json:"aborted_faults"`
}

func decodeResponse(body []byte, v any) error {
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	return nil
}

func checkCircuit(c *netlist.Circuit, got circuitInfo) error {
	want := circuitInfo{Gates: c.NumGates(), Inputs: c.NumInputs(), Outputs: c.NumOutputs()}
	if got != want {
		return fmt.Errorf("response describes circuit %+v, sent %+v", got, want)
	}
	return nil
}

// applyPlan re-inserts a plan response's test points into the circuit
// it was planned on. Control points are applied one at a time in
// response order, as they were selected against successively modified
// circuits; observation points and cuts are then inserted together on
// the control-modified circuit, as the planners do.
func applyPlan(c *netlist.Circuit, points []pointJSON) (*netlist.Circuit, error) {
	cur := c
	var batch []pointJSON
	for _, p := range points {
		var kind netlist.TestPointKind
		switch p.Kind {
		case "control0":
			kind = netlist.Control0
		case "control1":
			kind = netlist.Control1
		case "observe", "cut":
			batch = append(batch, p)
			continue
		default:
			return nil, fmt.Errorf("unknown test point kind %q", p.Kind)
		}
		if len(batch) > 0 {
			return nil, fmt.Errorf("control point %s listed after an observation point", p.Signal)
		}
		id, ok := cur.GateByName(p.Signal)
		if !ok {
			return nil, fmt.Errorf("control point on unknown signal %q", p.Signal)
		}
		next, err := cur.InsertTestPoints([]netlist.TestPoint{{Signal: id, Kind: kind}})
		if err != nil {
			return nil, err
		}
		cur = next
	}
	tps := make([]netlist.TestPoint, len(batch))
	for i, p := range batch {
		id, ok := cur.GateByName(p.Signal)
		if !ok {
			return nil, fmt.Errorf("%s point on unknown signal %q", p.Kind, p.Signal)
		}
		tps[i] = netlist.TestPoint{Signal: id, Kind: netlist.Observe}
		if p.Kind == "cut" {
			tps[i].Kind = netlist.FullCut
		}
	}
	if len(tps) == 0 {
		return cur, nil
	}
	return cur.InsertTestPoints(tps)
}

// coverage is the fault coverage of c under coverPatterns LFSR patterns
// over its collapsed fault universe: the plan-quality measure.
func coverage(c *netlist.Circuit) (float64, error) {
	res, err := fsim.Run(c, fault.CollapsedUniverse(c), pattern.NewLFSR(lfsrSeed), fsim.Options{MaxPatterns: coverPatterns, DropFaults: true})
	if err != nil {
		return 0, err
	}
	return res.Coverage(), nil
}

// checkPlan checks a /v1/plan response for request r and returns the
// circuit with its test points inserted. Every plan must name signals
// of the sent circuit and stay within its budget; cuts plans must cost
// what their cuts cost under the test-count recurrences.
func checkPlan(c *netlist.Circuit, r *request, body []byte) (*netlist.Circuit, error) {
	var resp planResponse
	if err := decodeResponse(body, &resp); err != nil {
		return nil, err
	}
	if err := checkCircuit(c, resp.Circuit); err != nil {
		return nil, err
	}
	if resp.Planner != r.kind {
		return nil, fmt.Errorf("planner %q, want %q", resp.Planner, r.kind)
	}
	if err := checkBudget(r, resp.Points); err != nil {
		return nil, err
	}
	if r.kind == kindCuts {
		if err := checkCuts(c, &resp); err != nil {
			return nil, err
		}
	}
	if resp.CoveredAfter < resp.CoveredBefore {
		return nil, fmt.Errorf("covered_after %d < covered_before %d", resp.CoveredAfter, resp.CoveredBefore)
	}
	return applyPlan(c, resp.Points)
}

// checkBudget requires a plan to stay within its request's budget: k
// points for cuts and observe plans, and for hybrid plans the server's
// default control- and observation-point budgets, counted apart.
func checkBudget(r *request, points []pointJSON) error {
	if r.kind != kindHybrid {
		if len(points) > r.k {
			return fmt.Errorf("%d points exceed the budget %d", len(points), r.k)
		}
		return nil
	}
	var cps, ops int
	for _, p := range points {
		switch p.Kind {
		case "control0", "control1":
			cps++
		case "observe":
			ops++
		default:
			return fmt.Errorf("hybrid plan lists a %s point", p.Kind)
		}
	}
	if cps > defaultNCP || ops > defaultNOP {
		return fmt.Errorf("hybrid plan has %d control and %d observation points, budgets %d and %d", cps, ops, defaultNCP, defaultNOP)
	}
	return nil
}

// cutIDs resolves a cuts response's points.
func cutIDs(c *netlist.Circuit, resp *planResponse) ([]int, error) {
	ids := make([]int, len(resp.Points))
	for i, p := range resp.Points {
		id, ok := c.GateByName(p.Signal)
		if !ok || p.Kind != "cut" {
			return nil, fmt.Errorf("bad cut point %+v", p)
		}
		ids[i] = id
	}
	return ids, nil
}

// checkCuts recomputes the minimax test count of the returned cuts.
func checkCuts(c *netlist.Circuit, resp *planResponse) error {
	ids, err := cutIDs(c, resp)
	if err != nil {
		return err
	}
	an, err := testcount.AnalyzeCuts(c, ids)
	if err != nil {
		return err
	}
	if an.MaxCost != resp.MaxCost {
		return fmt.Errorf("cuts plan claims max_cost %d, its cuts cost %d", resp.MaxCost, an.MaxCost)
	}
	return nil
}

// checkCutsBound checks a cuts response against a reference planner:
// never worse than greedy, and equal to the exhaustive optimum.
func checkCutsBound(c *netlist.Circuit, k int, body []byte, exact bool) error {
	var resp planResponse
	if err := decodeResponse(body, &resp); err != nil {
		return err
	}
	if err := checkCuts(c, &resp); err != nil {
		return err
	}
	if exact {
		ref, err := tpi.PlanCutsExhaustive(c, k)
		if err != nil {
			return err
		}
		if resp.MaxCost != ref.MaxCost {
			return fmt.Errorf("cuts max_cost %d, exhaustive optimum %d", resp.MaxCost, ref.MaxCost)
		}
		return nil
	}
	ref, err := tpi.PlanCutsGreedy(c, k)
	if err != nil {
		return err
	}
	if resp.MaxCost > ref.MaxCost {
		return fmt.Errorf("cuts max_cost %d is worse than greedy %d", resp.MaxCost, ref.MaxCost)
	}
	return nil
}

// checkObserveModel recomputes an observe plan's covered_after with the
// planner's COP model (tpi.ModelCoveredCount).
func checkObserveModel(c *netlist.Circuit, body []byte) error {
	var resp planResponse
	if err := decodeResponse(body, &resp); err != nil {
		return err
	}
	ops := make([]int, len(resp.Points))
	for i, p := range resp.Points {
		id, ok := c.GateByName(p.Signal)
		if !ok {
			return fmt.Errorf("observe point on unknown signal %q", p.Signal)
		}
		ops[i] = id
	}
	faults := fault.CollapsedUniverse(c)
	if resp.TotalFaults != len(faults) {
		return fmt.Errorf("total_faults %d, collapsed universe has %d", resp.TotalFaults, len(faults))
	}
	if got := tpi.ModelCoveredCount(c, faults, ops, 1.0/4096, tpi.OPOptions{}); got != resp.CoveredAfter {
		return fmt.Errorf("observe plan claims covered_after %d, its points cover %d", resp.CoveredAfter, got)
	}
	return nil
}

// checkFaultsim checks a /v1/faultsim response and returns the coverage
// it reports. The counts are checked whole. When window is positive the
// first-detect list is compared with the deductive simulator on the same
// circuit and patterns, entry by entry over the first window patterns,
// where most faults are first detected.
func checkFaultsim(c *netlist.Circuit, body []byte, patterns, window int) (float64, error) {
	var resp simResponse
	if err := decodeResponse(body, &resp); err != nil {
		return 0, err
	}
	if err := checkCircuit(c, resp.Circuit); err != nil {
		return 0, err
	}
	faults := fault.CollapsedUniverse(c)
	switch {
	case resp.Faults != len(faults):
		return 0, fmt.Errorf("faults %d, collapsed universe has %d", resp.Faults, len(faults))
	case resp.Patterns < 1 || resp.Patterns > patterns:
		return 0, fmt.Errorf("patterns %d outside 1..%d", resp.Patterns, patterns)
	case resp.Detected != len(resp.FirstDetect) || resp.Detected+len(resp.Undetected) != resp.Faults:
		return 0, fmt.Errorf("detected %d, first_detect %d, undetected %d do not add up to %d faults",
			resp.Detected, len(resp.FirstDetect), len(resp.Undetected), resp.Faults)
	case math.Abs(resp.Coverage-float64(resp.Detected)/float64(resp.Faults)) > 1e-12:
		return 0, fmt.Errorf("coverage %v, detected/faults %v", resp.Coverage, float64(resp.Detected)/float64(resp.Faults))
	}
	got := make(map[string]int, len(resp.FirstDetect))
	for _, d := range resp.FirstDetect {
		if _, dup := got[d.Fault]; dup {
			return 0, fmt.Errorf("fault %s detected twice", d.Fault)
		}
		if d.Pattern < 0 || d.Pattern >= resp.Patterns {
			return 0, fmt.Errorf("fault %s first detected by pattern %d of %d", d.Fault, d.Pattern, resp.Patterns)
		}
		got[d.Fault] = d.Pattern
	}
	if window <= 0 {
		return resp.Coverage, nil
	}
	if window > resp.Patterns {
		window = resp.Patterns
	}
	ref, err := dsim.Run(c, faults, pattern.NewLFSR(lfsrSeed), dsim.Options{MaxPatterns: window, DropFaults: true})
	if err != nil {
		return 0, err
	}
	for _, f := range faults {
		name := f.Name(c)
		want, refHit := ref.FirstDetect[f]
		have, hit := got[name]
		switch {
		case refHit && (!hit || have != want):
			return 0, fmt.Errorf("fault %s: dsim first detects it at pattern %d, response says %d (listed %t)", name, want, have, hit)
		case !refHit && hit && have < window:
			return 0, fmt.Errorf("fault %s: response first detects it at pattern %d, dsim not within %d patterns", name, have, window)
		}
	}
	return resp.Coverage, nil
}

// jobResult returns the engine result of a GET /v1/jobs/{id} body, read
// after the job's terminal event: the job must be done and carry a
// result.
func jobResult(data []byte) ([]byte, error) {
	var job struct {
		State  string          `json:"state"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(data, &job); err != nil {
		return nil, fmt.Errorf("decode job status: %w", err)
	}
	if job.State != "done" {
		return nil, fmt.Errorf("job status says %q after its done event", job.State)
	}
	if len(job.Result) == 0 || string(job.Result) == "null" {
		return nil, errors.New("done job carries no result")
	}
	return job.Result, nil
}

// checkATPG re-simulates an /v1/atpg response's vectors and requires
// them to detect every fault the response reports as detected: the
// collapsed universe minus its redundant and aborted faults.
func checkATPG(c *netlist.Circuit, body []byte) error {
	var resp atpgResponse
	if err := decodeResponse(body, &resp); err != nil {
		return err
	}
	if err := checkCircuit(c, resp.Circuit); err != nil {
		return err
	}
	faults := fault.CollapsedUniverse(c)
	if resp.Faults != len(faults) {
		return fmt.Errorf("faults %d, collapsed universe has %d", resp.Faults, len(faults))
	}
	if resp.Redundant != len(resp.RedundantFaults) || resp.Aborted != len(resp.AbortedFaults) {
		return errors.New("redundant/aborted counts do not match their lists")
	}
	skip := make(map[string]bool)
	for _, n := range append(append([]string(nil), resp.RedundantFaults...), resp.AbortedFaults...) {
		skip[n] = true
	}
	var detected []fault.Fault
	for _, f := range faults {
		if !skip[f.Name(c)] {
			detected = append(detected, f)
		}
	}
	if len(detected) != resp.Detected || resp.Detected+resp.Redundant+resp.Aborted != resp.Faults {
		return fmt.Errorf("detected %d, but %d faults are neither redundant nor aborted", resp.Detected, len(detected))
	}
	if len(detected) == 0 {
		return nil
	}
	vecs := make([][]bool, len(resp.Vectors))
	for i, v := range resp.Vectors {
		if len(v) != c.NumInputs() {
			return fmt.Errorf("vector %d has %d bits for %d inputs", i, len(v), c.NumInputs())
		}
		vecs[i] = make([]bool, len(v))
		for j := 0; j < len(v); j++ {
			if v[j] != '0' && v[j] != '1' {
				return fmt.Errorf("vector %d: bad bit %q", i, v[j])
			}
			vecs[i][j] = v[j] == '1'
		}
	}
	res, err := fsim.Run(c, detected, pattern.NewVectors(vecs), fsim.Options{MaxPatterns: len(vecs) + 1, DropFaults: true})
	if err != nil {
		return err
	}
	for _, f := range detected {
		if _, ok := res.FirstDetect[f]; !ok {
			return fmt.Errorf("fault %s reported detected, but no returned vector detects it", f.Name(c))
		}
	}
	return nil
}

// checkHot requires a serve-hot response to be a cache hit whose bytes
// equal the warm-up (cache miss) response of the same request.
func checkHot(want, got []byte, hit bool) error {
	if !hit {
		return errors.New("serve-hot response is not a cache hit")
	}
	if !bytes.Equal(want, got) {
		return fmt.Errorf("serve-hot response (%d bytes) differs from its warm-up response (%d bytes)", len(got), len(want))
	}
	return nil
}
