package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/serve"
	"repro/internal/testcount"
	"repro/internal/tpi"
)

// respond sends r to a fresh in-process server and returns the body.
func respond(t *testing.T, r *request) []byte {
	t.Helper()
	srv, err := serve.New(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body, err := r.body()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+r.endpoint(), "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	return body
}

func mustInput(t *testing.T, c *netlist.Circuit) *input {
	t.Helper()
	in, err := newInput(c)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func remarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFaultsimCheckCatchesFlippedFirstDetect(t *testing.T) {
	in := mustInput(t, gen.RandomDAG(7, 16, 150, gen.DAGOptions{}))
	r := newRequest(kindFaultsim, in, 1024, false, false)
	body := respond(t, r)
	c, err := in.circuit()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkFaultsim(c, body, r.k, dsimWindow); err != nil {
		t.Fatalf("genuine response rejected: %v", err)
	}
	var resp simResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if _, err := checkFaultsim(c, remarshal(t, resp), r.k, dsimWindow); err != nil {
		t.Fatalf("re-encoded response rejected: %v", err)
	}

	// One entry's pattern moved by one. Entries are sorted by pattern;
	// take the latest one inside the checked window.
	last := len(resp.FirstDetect) - 1
	for last > 0 && resp.FirstDetect[last].Pattern >= dsimWindow-1 {
		last--
	}
	shifted := resp
	shifted.FirstDetect = append([]detectJSON(nil), resp.FirstDetect...)
	shifted.FirstDetect[last].Pattern++
	if _, err := checkFaultsim(c, remarshal(t, shifted), r.k, dsimWindow); err == nil {
		t.Error("first-detect entry moved to another pattern was not caught")
	}

	// Two entries with different patterns trade faults.
	swapped := resp
	swapped.FirstDetect = append([]detectJSON(nil), resp.FirstDetect...)
	fd := swapped.FirstDetect
	fd[0].Fault, fd[last].Fault = fd[last].Fault, fd[0].Fault
	if fd[0].Pattern == fd[last].Pattern {
		t.Fatal("swap needs two different patterns")
	}
	if _, err := checkFaultsim(c, remarshal(t, swapped), r.k, dsimWindow); err == nil {
		t.Error("first-detect entries with swapped faults were not caught")
	}
}

func TestATPGCheckCatchesDroppedVector(t *testing.T) {
	in := mustInput(t, gen.RandomDAG(3, 16, 80, gen.DAGOptions{}))
	body := respond(t, newRequest(kindATPG, in, 0, true, false))
	c, err := in.circuit()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkATPG(c, body); err != nil {
		t.Fatalf("genuine response rejected: %v", err)
	}
	var resp atpgResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Vectors) < 2 {
		t.Fatalf("need at least two vectors, got %d", len(resp.Vectors))
	}
	// The last vector was generated for a fault no earlier vector
	// detects, so dropping it must leave a reported detection unbacked.
	resp.Vectors = resp.Vectors[:len(resp.Vectors)-1]
	if err := checkATPG(c, remarshal(t, resp)); err == nil {
		t.Error("dropped ATPG vector was not caught")
	}
}

func TestCutsCheckCatchesPlanWorseThanReference(t *testing.T) {
	in := mustInput(t, gen.RandomTree(11, 300, gen.TreeOptions{}))
	r := newRequest(kindCuts, in, 4, false, false)
	body := respond(t, r)
	c, err := in.circuit()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCutsBound(c, r.k, body, false); err != nil {
		t.Fatalf("genuine response rejected: %v", err)
	}
	var resp planResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}

	// A plan that misstates what its cuts cost.
	lying := resp
	lying.MaxCost--
	if err := checkCutsBound(c, r.k, remarshal(t, lying), false); err == nil {
		t.Error("cut plan claiming a lower cost than its cuts was not caught")
	}

	// A self-consistent plan that is worse than greedy: no cuts at all.
	base, err := testcount.AnalyzeCuts(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := tpi.PlanCutsGreedy(c, r.k)
	if err != nil {
		t.Fatal(err)
	}
	if greedy.MaxCost >= base.MaxCost {
		t.Fatalf("greedy (%d) does not beat the uncut tree (%d); pick another tree", greedy.MaxCost, base.MaxCost)
	}
	worse := resp
	worse.Points, worse.MaxCost = nil, base.MaxCost
	if err := checkCutsBound(c, r.k, remarshal(t, worse), false); err == nil {
		t.Error("cut plan worse than greedy was not caught")
	}

	// On a small tree, a self-consistent plan short of the optimum.
	small := mustInput(t, gen.RandomTree(5, 14, gen.TreeOptions{}))
	sr := newRequest(kindCuts, small, 4, false, false)
	sbody := respond(t, sr)
	sc, err := small.circuit()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCutsBound(sc, sr.k, sbody, true); err != nil {
		t.Fatalf("genuine small-tree response rejected: %v", err)
	}
	var sresp planResponse
	if err := json.Unmarshal(sbody, &sresp); err != nil {
		t.Fatal(err)
	}
	sbase, err := testcount.AnalyzeCuts(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sresp.MaxCost == sbase.MaxCost {
		t.Fatal("the optimum equals the uncut cost; pick another small tree")
	}
	sresp.Points, sresp.MaxCost = nil, sbase.MaxCost
	if err := checkCutsBound(sc, sr.k, remarshal(t, sresp), true); err == nil {
		t.Error("cut plan short of the exhaustive optimum was not caught")
	}
}

func TestServeHotCheckCatchesOneByteChange(t *testing.T) {
	in := mustInput(t, gen.RandomDAG(9, 16, 120, gen.DAGOptions{}))
	want := respond(t, newRequest(kindFaultsim, in, 256, false, false))
	got := append([]byte(nil), want...)
	if err := checkHot(want, got, true); err != nil {
		t.Fatalf("identical hit rejected: %v", err)
	}
	if err := checkHot(want, got, false); err == nil {
		t.Error("identical bytes without X-Cache: hit were not caught")
	}
	got[len(got)/2] ^= 1
	if err := checkHot(want, got, true); err == nil {
		t.Error("one-byte change to a serve-hot response was not caught")
	}
}

func TestJobResultCheckCatchesMissingResult(t *testing.T) {
	srv, err := startServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.stop(); err != nil {
			t.Error(err)
		}
	}()
	ctx := context.Background()
	in := mustInput(t, gen.RandomDAG(5, 16, 120, gen.DAGOptions{}))
	r := newRequest(kindFaultsim, in, 256, false, true)
	r.dsim = true
	s := srv.do(ctx, r, true)
	if !s.ok() {
		t.Fatalf("async request failed: status %d, %v", s.status, s.err)
	}
	sync := *r
	sync.async = false
	if want := respond(t, &sync); !bytes.Equal(s.body, want) {
		t.Fatal("async result differs from the sync response")
	}

	// The job-status body as the server sends it once the job is done.
	var list struct {
		Jobs []struct {
			ID string `json:"id"`
		} `json:"jobs"`
	}
	resp, err := srv.get(ctx, "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil || len(list.Jobs) != 1 {
		t.Fatalf("job list: %v, %d jobs", err, len(list.Jobs))
	}
	resp, err = srv.get(ctx, "/v1/jobs/"+list.Jobs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	status, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := jobResult(status); err != nil || !bytes.Equal(got, s.body) {
		t.Fatalf("genuine job status rejected or misread: %v", err)
	}

	var job map[string]json.RawMessage
	if err := json.Unmarshal(status, &job); err != nil {
		t.Fatal(err)
	}
	stripped := map[string]json.RawMessage{}
	for k, v := range job {
		if k != "result" {
			stripped[k] = v
		}
	}
	if _, err := jobResult(remarshal(t, stripped)); err == nil {
		t.Error("done job without a result was not caught")
	}
	running := map[string]json.RawMessage{}
	for k, v := range job {
		running[k] = v
	}
	running["state"] = json.RawMessage(`"running"`)
	if _, err := jobResult(remarshal(t, running)); err == nil {
		t.Error("job status that is not done was not caught")
	}

	// A checked response whose body never arrived fails its check too.
	if _, _, err := checkSample(&s); err != nil {
		t.Fatalf("genuine async result rejected: %v", err)
	}
	lost := s
	lost.body = nil
	if _, _, err := checkSample(&lost); err == nil {
		t.Error("missing result body was not caught")
	}
}

func TestHybridCheckCatchesOverBudget(t *testing.T) {
	in := mustInput(t, gen.RPResistant(4, 3, 12, 80))
	r := newRequest(kindHybrid, in, 0, false, false)
	body := respond(t, r)
	c, err := in.circuit()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkPlan(c, r, body); err != nil {
		t.Fatalf("genuine response rejected: %v", err)
	}
	var resp planResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	signal := c.GateName(c.Outputs()[0])
	for _, extra := range []struct {
		kind string
		n    int
	}{{"control1", defaultNCP + 1}, {"observe", defaultNOP + 1}} {
		over := resp
		over.Points = append([]pointJSON(nil), resp.Points...)
		for i := 0; i < extra.n; i++ {
			over.Points = append(over.Points, pointJSON{Signal: signal, Kind: extra.kind})
		}
		if _, err := checkPlan(c, r, remarshal(t, over)); err == nil {
			t.Errorf("hybrid plan with %d extra %s points was not caught", extra.n, extra.kind)
		}
	}
}

// TestApplyPlanRebuildsHybridCircuit pins the coverage method: test
// points re-inserted from a hybrid response rebuild exactly the circuit
// PlanHybrid produced.
func TestApplyPlanRebuildsHybridCircuit(t *testing.T) {
	in := mustInput(t, gen.RPResistant(4, 3, 12, 80))
	r := newRequest(kindHybrid, in, 0, false, false)
	body := respond(t, r)
	c, err := in.circuit()
	if err != nil {
		t.Fatal(err)
	}
	mod, err := checkPlan(c, r, body)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := tpi.PlanHybrid(c, fault.CollapsedUniverse(c), defaultNCP, defaultNOP, defaultDth, tpi.CPOptions{}, tpi.OPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.AllPoints() == 0 {
		t.Fatal("hybrid plan inserted no points; pick another circuit")
	}
	var got, want strings.Builder
	if err := bench.Write(&got, mod); err != nil {
		t.Fatal(err)
	}
	if err := bench.Write(&want, plan.Modified); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Error("re-inserted hybrid plan differs from PlanHybrid's modified circuit")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root
// in step with the workloads and metrics this command reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, servebench has %d", len(spec.Workloads), len(workloads))
	}
	for i := range spec.Workloads {
		if i < len(workloads) && spec.Workloads[i].Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, servebench %q", i, spec.Workloads[i].Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(e2eMetrics) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, servebench reports %d", len(spec.EndToEnd), len(e2eMetrics))
	}
	for i, m := range spec.EndToEnd {
		if i < len(e2eMetrics) && (m.Name != e2eMetrics[i].name || m.Unit != e2eMetrics[i].unit) {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s/%s, servebench %s/%s", i, m.Name, m.Unit, e2eMetrics[i].name, e2eMetrics[i].unit)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, servebench reports %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if i < len(layerMetrics) && (m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit || m.Better != layerMetrics[i].better) {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, servebench %+v", i, m, layerMetrics[i])
		}
	}
}
