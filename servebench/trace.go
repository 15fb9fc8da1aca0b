package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/implic"
	"repro/internal/netlist"
	"repro/internal/pattern"
	"repro/internal/testability"
	"repro/internal/tpi"
)

// Planner settings the server defaults to and the replay repeats.
const (
	defaultDth = 1.0 / 4096
	defaultNCP = 3
	defaultNOP = 4
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	name, unit, better string
}

// layerMetrics lists the per-layer metrics in report order. Values are
// medians over the traced requests that ran the stage, and 0 when none
// did; the ratios and counts marked per phase are totals over the
// traced phase.
var layerMetrics = []layerMetric{
	{"serve.cache_hit_ratio", "ratio", "higher"}, // per phase, from /v1/stats
	{"serve.self_ms", "ms", "lower"},             // sync latency minus the replayed stages
	{"serve.key_ms", "ms", "lower"},
	{"serve.resp_kb", "KiB", "lower"},
	{"bench.parse_ms", "ms", "lower"},
	{"bench.write_ms", "ms", "lower"},
	{"fault.collapse_ms", "ms", "lower"},
	{"fault.faults", "count", "lower"},
	{"implic.build_ms", "ms", "lower"},
	{"implic.sweep_ms", "ms", "lower"},
	{"implic.learned", "count", "higher"},
	{"implic.redundant_ratio", "ratio", "higher"},
	{"testability.cop_ms", "ms", "lower"},
	{"tpi.cp_evaluations", "count", "lower"},
	{"tpi.cp_accept_ratio", "ratio", "higher"},
	{"tpi.prune_ms", "ms", "lower"},
	{"tpi.control_ms", "ms", "lower"},
	{"tpi.insert_ms", "ms", "lower"},
	{"tpi.observe_ms", "ms", "lower"},
	{"tpi.observe_states", "count", "lower"},
	{"tpi.cuts_ms", "ms", "lower"},
	{"tpi.cuts_states", "count", "lower"},
	{"fsim.run_ms", "ms", "lower"},
	{"fsim.patterns", "count", "lower"},
	{"atpg.run_ms", "ms", "lower"},
	{"atpg.vectors", "count", "lower"},
	{"atpg.aborted", "count", "lower"},
	{"atpg.redundant", "count", "higher"},
	{"jobs.submit_ms", "ms", "lower"},
	{"jobs.self_ms", "ms", "lower"}, // async latency minus the replayed engine stages
	{"jobs.rejected", "count", "lower"},
	{"jobs.failed", "count", "lower"},        // per phase, from /v1/stats
	{"jobs.requeued", "count", "lower"},      // per phase, from /v1/stats
	{"trace.overhead_p50_ms", "ms", "lower"}, // traced minus untraced latency_p50_ms
}

// span is one timed interval of the traced run. A request's root span
// covers its HTTP exchange; its children are the stages replayed
// in-process right after it, in the order serve runs them. Stages
// serve does not run for the request (layer probes) are off path.
type span struct {
	Req    int     `json:"req"`
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	OnPath bool    `json:"on_path"`
}

// tracer keeps the spans of the traced phase in memory.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) at(x time.Time) float64 { return float64(x.Sub(t.t0).Nanoseconds()) / 1e6 }

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// replayer records one request's replayed stages.
type replayer struct {
	t      *tracer
	req    int
	spans  []span
	vals   map[string]float64
	path   float64 // ms of on-path stages
	engine float64 // ms of on-path engine stages
}

// pathKey prefixes the per-request sums of on-path stage times, which
// stageShares reads; probes of the same layer stay out of them.
const pathKey = "path:"

// engineStages are the stages that run inside an engine call, as
// opposed to the serve layer's request handling.
var engineStages = map[string]bool{
	"fault.collapse": true, "implic.build": true, "tpi.prune": true, "tpi.control": true,
	"tpi.insert": true, "tpi.observe": true, "tpi.cuts": true, "fsim.run": true, "atpg.run": true,
}

// stage times fn as one child span of the request.
func (r *replayer) stage(name string, onPath bool, fn func() error) error {
	start := time.Now()
	err := fn()
	end := time.Now()
	ms := float64(end.Sub(start).Nanoseconds()) / 1e6
	r.spans = append(r.spans, span{Req: r.req, ID: len(r.spans) + 1, Parent: 1, Name: name,
		Start: r.t.at(start), End: r.t.at(end), OnPath: onPath})
	r.vals[name+"_ms"] += ms
	if onPath {
		r.vals[pathKey+name] += ms
		r.path += ms
		if engineStages[name] {
			r.engine += ms
		}
	}
	if err != nil {
		return fmt.Errorf("replay %s: %w", name, err)
	}
	return nil
}

// replay re-runs a completed request's stages in-process through the
// layers' public functions and returns its per-layer values. Cache hits
// replay only the request handling that serve runs before its lookup.
func (t *tracer) replay(idx int, r *request, smp *sample) (map[string]float64, error) {
	rp := &replayer{t: t, req: idx, vals: map[string]float64{}}
	rp.spans = append(rp.spans, span{Req: idx, ID: 1, Name: "request " + r.endpoint(),
		Start: t.at(smp.sent), End: t.at(smp.sent.Add(smp.lat)), OnPath: true})
	err := rp.run(r, smp.hit)
	lat := float64(smp.lat.Nanoseconds()) / 1e6
	rp.vals["serve.resp_kb"] = float64(smp.size) / 1024
	if r.async {
		rp.vals["jobs.submit_ms"] = float64(smp.submit.Nanoseconds()) / 1e6
		rp.vals["jobs.self_ms"] = lat - rp.engine
	} else {
		rp.vals["serve.self_ms"] = lat - rp.path
	}
	rp.vals["latency_ms"] = lat
	t.mu.Lock()
	t.spans = append(t.spans, rp.spans...)
	t.mu.Unlock()
	return rp.vals, err
}

func (rp *replayer) run(r *request, hit bool) error {
	body, err := r.body()
	if err != nil {
		return err
	}
	var env struct {
		Bench string `json:"bench"`
	}
	if err := rp.stage("serve.decode", true, func() error { return json.Unmarshal(body, &env) }); err != nil {
		return err
	}
	var c *netlist.Circuit
	if err := rp.stage("bench.parse", true, func() (err error) { c, err = parseBench(env.Bench); return err }); err != nil {
		return err
	}
	var canon strings.Builder
	if err := rp.stage("bench.write", true, func() error { return bench.Write(&canon, c) }); err != nil {
		return err
	}
	if err := rp.stage("serve.key", true, func() error { sha256.Sum256([]byte(canon.String())); return nil }); err != nil {
		return err
	}
	if hit {
		return nil
	}
	var faults []fault.Fault
	collapse := func() error {
		faults = fault.CollapsedUniverse(c)
		rp.vals["fault.faults"] = float64(len(faults))
		return nil
	}
	switch r.kind {
	case kindCuts:
		return rp.stage("tpi.cuts", true, func() error {
			p, err := tpi.PlanCutsDP(c, r.k)
			if err == nil {
				rp.vals["tpi.cuts_states"] = float64(p.StatesVisited)
			}
			return err
		})
	case kindObserve:
		if err := rp.stage("fault.collapse", true, collapse); err != nil {
			return err
		}
		return rp.stage("tpi.observe", true, func() error {
			p, err := tpi.PlanObservationPointsDP(c, faults, r.k, defaultDth, tpi.OPOptions{})
			if err == nil {
				rp.vals["tpi.observe_states"] = float64(p.StatesVisited)
			}
			return err
		})
	case kindHybrid:
		if err := rp.stage("fault.collapse", true, collapse); err != nil {
			return err
		}
		return rp.hybrid(c, faults)
	case kindFaultsim:
		if err := rp.stage("fault.collapse", true, collapse); err != nil {
			return err
		}
		return rp.stage("fsim.run", true, func() error {
			res, err := fsim.Run(c, faults, pattern.NewLFSR(lfsrSeed), fsim.Options{MaxPatterns: r.k, DropFaults: true})
			if err == nil {
				rp.vals["fsim.patterns"] = float64(res.Patterns)
			}
			return err
		})
	case kindATPG:
		if err := rp.stage("fault.collapse", true, collapse); err != nil {
			return err
		}
		var eng *implic.Engine
		if r.learn {
			if err := rp.stage("implic.build", true, func() error { eng = implic.New(c, implic.Options{}); return nil }); err != nil {
				return err
			}
			rp.vals["implic.learned"] = float64(eng.NumLearned())
		}
		return rp.stage("atpg.run", true, func() error {
			ts, err := atpg.GenerateTests(c, faults, atpg.Options{Learn: eng})
			if err == nil {
				rp.vals["atpg.vectors"] = float64(len(ts.Vectors))
				rp.vals["atpg.aborted"] = float64(len(ts.Aborted))
				rp.vals["atpg.redundant"] = float64(len(ts.Redundant))
			}
			return err
		})
	}
	return fmt.Errorf("replay: unknown request kind %q", r.kind)
}

// hybrid replays PlanHybrid's stages: static prune, control greedy,
// control insertion, observe DP on the modified circuit, observe
// insertion. One COP and one implication engine build and sweep follow
// as off-path probes, timing the units the prune and the greedy repeat.
func (rp *replayer) hybrid(c *netlist.Circuit, faults []fault.Fault) error {
	var kept []fault.Fault
	if err := rp.stage("tpi.prune", true, func() error { kept, _ = tpi.PruneFaults(c, faults); return nil }); err != nil {
		return err
	}
	var cp *tpi.CPPlan
	if err := rp.stage("tpi.control", true, func() (err error) {
		cp, err = tpi.PlanControlPointsGreedy(c, kept, defaultNCP, defaultDth, tpi.CPOptions{})
		return err
	}); err != nil {
		return err
	}
	rp.vals["tpi.cp_evaluations"] = float64(cp.Evaluations)
	if cp.Evaluations > 0 {
		rp.vals["tpi.cp_accept_ratio"] = float64(len(cp.Points)) / float64(cp.Evaluations)
	}
	var mid *netlist.Circuit
	if err := rp.stage("tpi.insert", true, func() (err error) { mid, err = cp.Apply(c); return err }); err != nil {
		return err
	}
	var op *tpi.OPPlan
	if err := rp.stage("tpi.observe", true, func() (err error) {
		op, err = tpi.PlanObservationPointsDP(mid, kept, defaultNOP, defaultDth, tpi.OPOptions{})
		return err
	}); err != nil {
		return err
	}
	rp.vals["tpi.observe_states"] = float64(op.StatesVisited)
	if err := rp.stage("tpi.insert", true, func() error { _, err := mid.InsertTestPoints(op.TestPoints()); return err }); err != nil {
		return err
	}

	if err := rp.stage("testability.cop", false, func() error { testability.NewCOP(c, testability.COPOptions{}); return nil }); err != nil {
		return err
	}
	var eng *implic.Engine
	if err := rp.stage("implic.build", false, func() error { eng = implic.New(c, implic.Options{}); return nil }); err != nil {
		return err
	}
	var redundant int
	if err := rp.stage("implic.sweep", false, func() error { redundant = len(eng.RedundantSet()); return nil }); err != nil {
		return err
	}
	rp.vals["implic.learned"] = float64(eng.NumLearned())
	rp.vals["implic.redundant_ratio"] = float64(redundant) / float64(len(fault.Universe(c)))
	return nil
}

// layerReport derives the per-layer metrics of a traced phase; base is
// the untraced phase, for the tracing overhead.
func layerReport(traced, base *phase) map[string]float64 {
	per := map[string][]float64{}
	rejected := 0
	for _, s := range traced.samples {
		if s.status == 429 {
			rejected++
		}
		if s.layers == nil {
			continue
		}
		for _, m := range layerMetrics {
			if v, ok := s.layers[m.name]; ok {
				per[m.name] = append(per[m.name], v)
			}
		}
	}
	out := make(map[string]float64, len(layerMetrics))
	for _, m := range layerMetrics {
		out[m.name] = median(per[m.name])
	}
	hits := traced.after.Cache.Hits - traced.before.Cache.Hits
	misses := traced.after.Cache.Misses - traced.before.Cache.Misses
	if hits+misses > 0 {
		out["serve.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	out["jobs.rejected"] = float64(rejected)
	out["jobs.failed"] = float64(traced.after.Jobs.Failed - traced.before.Jobs.Failed)
	out["jobs.requeued"] = float64(traced.after.Jobs.Requeued - traced.before.Jobs.Requeued)
	out["trace.overhead_p50_ms"] = percentile(latencies(traced), 0.5) - percentile(latencies(base), 0.5)
	return out
}

// stageShares returns each replayed on-path stage's share of the summed
// request latency of a traced phase, with the unattributed rest under
// "unattributed", largest first.
func stageShares(traced *phase) []share {
	total := 0.0
	sums := map[string]float64{}
	for _, s := range traced.samples {
		if s.layers == nil {
			continue
		}
		total += s.layers["latency_ms"]
	}
	if total == 0 {
		return nil
	}
	attributed := 0.0
	for _, s := range traced.samples {
		for _, name := range onPathStages {
			if v, ok := s.layers[pathKey+name]; ok {
				sums[name] += v
				attributed += v
			}
		}
	}
	out := []share{{"unattributed", (total - attributed) / total}}
	for _, name := range onPathStages {
		if sums[name] > 0 {
			out = append(out, share{name, sums[name] / total})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].frac > out[j].frac })
	return out
}

type share struct {
	name string
	frac float64
}

// onPathStages are the stages serve runs, in its order.
var onPathStages = []string{
	"serve.decode", "bench.parse", "bench.write", "serve.key", "fault.collapse", "implic.build",
	"tpi.prune", "tpi.control", "tpi.insert", "tpi.observe", "tpi.cuts", "fsim.run", "atpg.run",
}
