// Command servebench is the repository benchmark. It drives an
// in-process serve.Server over loopback HTTP with a closed loop of
// seeded requests, checks every response against an independent
// reference, and reports the end-to-end metrics of one workload; with
// -trace 1 it also replays each request's stages in-process and reports
// per-layer metrics. The last line of standard output is a JSON object
// with the keys correct, attempted, failed and metrics.
//
// Run it from the repository root:
//
//	bash servebench/run.sh --workload plan-cold --seed 1 --seconds 20 --trace 0
//
// README.md in this directory describes the workloads, the metrics and
// the checks. Exit status: 0 when every check passed, 1 when a request
// failed or a check caught a wrong output (the JSON line is printed
// first), 2 on bad flags.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cli"
)

// setupRepeats is how many times each run sets the server up; setup_s
// is their median and the last server serves the timed loop.
const setupRepeats = 5

// clients is the number of closed-loop clients. A run refuses hosts
// with fewer CPUs: more clients than CPUs measures scheduler contention
// between clients, not the server.
const clients = 2

// e2eMetric is one end-to-end metric.
type e2eMetric struct {
	name, unit string
}

var e2eMetrics = []e2eMetric{
	{"setup_s", "s"},
	{"req_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"cpu_ms_per_req", "ms"},
	{"peak_rss_mb", "MiB"},
	{"plan_fsim_coverage", "ratio"},
}

func main() {
	err := run(os.Stdout, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
	}
	os.Exit(cli.ExitCode(err))
}

type config struct {
	workload *workload
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 25, "length of the timed closed loop")
	trace := fs.Int("trace", 0, "1 = traced run: half the time untraced, half with in-process stage replay; report per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for job stores and span dumps")
	if err := fs.Parse(args); err != nil {
		return nil, cli.Usage(err)
	}
	w, ok := lookupWorkload(*name)
	switch {
	case !ok:
		return nil, cli.Usage(fmt.Errorf("unknown -workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", ")))
	case *seconds <= 0:
		return nil, cli.Usage(fmt.Errorf("-seconds must be positive, got %g", *seconds))
	case *trace != 0 && *trace != 1:
		return nil, cli.Usage(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	case clients > runtime.NumCPU():
		return nil, cli.Usage(fmt.Errorf("%d clients need at least %d CPUs, nproc is %d", clients, clients, runtime.NumCPU()))
	}
	return &config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}, nil
}

func run(stdout io.Writer, args []string) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	w := cfg.workload
	fmt.Fprintf(stdout, "meta workload=%s seed=%d nproc=%d gomaxprocs=%d go=%s clients=%d seconds=%g trace=%t\n",
		w.name, cfg.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), clients, cfg.seconds, cfg.trace)
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	ctx := context.Background()
	start := time.Now()

	warm, err := w.warm(cfg.seed)
	if err != nil {
		return err
	}
	pool, err := w.pool(cfg.seed, int(math.Ceil(cfg.seconds*w.rate)), warm)
	if err != nil {
		return err
	}
	poolDir := filepath.Join(cfg.out, fmt.Sprintf("servebench-pool-%d", os.Getpid()))
	if err := os.MkdirAll(poolDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(poolDir)
	poolFiles, poolBytes, err := spillPool(poolDir, pool, warm)
	if err != nil {
		return err
	}
	genTime := time.Since(start)

	var (
		srv      *server
		setups   []float64
		warmResp []*sample
	)
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return err
			}
		}
		jobDir := ""
		if w.name == "verify-async" {
			jobDir = filepath.Join(cfg.out, fmt.Sprintf("servebench-jobs-%d-%d", os.Getpid(), i))
		}
		t0 := time.Now()
		var prev []*sample
		prev, warmResp = warmResp, nil
		srv, warmResp, err = setUp(ctx, jobDir, warm)
		setups = append(setups, time.Since(t0).Seconds())
		if err == nil && prev != nil {
			err = sameResponses(prev, warmResp)
		}
		if err != nil {
			if srv != nil {
				_ = srv.stop() // the set-up error is the one to report
			}
			return fmt.Errorf("set-up: %w", err)
		}
	}

	var hot map[*request][]byte
	if w.name == "serve-hot" {
		hot = make(map[*request][]byte, len(warmResp))
		for _, s := range warmResp {
			hot[s.req] = s.body
		}
	}

	// Return the memory freed since generation to the OS, so the loop's
	// memory samples start from the server's and clients' own.
	debug.FreeOSMemory()
	var next atomic.Int64
	d := time.Duration(cfg.seconds * float64(time.Second))
	var base, traced *phase
	var tr *tracer
	if cfg.trace {
		d /= 2
	}
	base, err = srv.loop(ctx, pool, &next, d, nil, hot)
	maxRSS := peakRSS()
	if err == nil && cfg.trace {
		tr = newTracer()
		traced, err = srv.loop(ctx, pool, &next, d, tr, hot)
	}
	if err != nil {
		_ = srv.stop() // the loop error is the one to report
		return err
	}

	phases := []*phase{base}
	if traced != nil {
		phases = append(phases, traced)
	}
	extra, err := smallTreeRequests(ctx, srv, w, cfg.seed)
	if serr := srv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}

	// Output checks, outside every timed region.
	var all []*sample
	for _, ph := range phases {
		all = append(all, ph.samples...)
	}
	checked := append(append(append([]*sample(nil), all...), extra...), sampledWarm(warmResp)...)
	checkStart := time.Now()
	cov, failures := checkSamples(checked)
	checkTime := time.Since(checkStart)
	attempted := len(checked)
	failed := len(failures)
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "servebench: request %d (%s): %v\n", f.s.idx, f.s.req.kind, f.err)
	}

	// End-to-end metrics, from the untraced phase.
	passed := countPassed(base.samples, failures)
	lat := latencies(base)
	e2e := map[string]float64{
		"setup_s":            median(setups),
		"req_per_s":          float64(passed) / base.wall.Seconds(),
		"latency_p50_ms":     percentile(lat, 0.50),
		"latency_p95_ms":     percentile(lat, 0.95),
		"cpu_ms_per_req":     ms(base.cpu) / math.Max(1, float64(len(base.samples))),
		"peak_rss_mb":        percentile(base.memory, 0.95),
		"plan_fsim_coverage": cov,
	}
	beyond := len(lat) - int(math.Ceil(0.95*float64(len(lat))))
	fmt.Fprintf(stdout, "loop requests=%d completed=%d passed=%d wall_s=%.3f beyond_p95=%d pool=%d exhausted=%t\n",
		len(base.samples), len(lat), passed, base.wall.Seconds(), beyond, len(pool), base.exhausted)
	fmt.Fprintf(stdout, "time generate_s=%.3f setup_total_s=%.3f check_s=%.3f total_s=%.3f\n",
		genTime.Seconds(), sum(setups), checkTime.Seconds(), time.Since(start).Seconds())
	fmt.Fprintf(stdout, "memory samples=%d start_mb=%.3f max_mb=%.3f maxrss_mb=%.3f pool_files=%d pool_mb=%.3f (on disk)\n",
		len(base.memory), base.memory[0], percentile(base.memory, 1), maxRSS, poolFiles, float64(poolBytes)/(1<<20))
	if beyond < 10 {
		fmt.Fprintf(stdout, "warning: only %d samples beyond p95; latency_p95_ms is under-sampled\n", beyond)
	}
	for _, m := range e2eMetrics {
		fmt.Fprintf(stdout, "e2e %-20s %14.6f %s\n", m.name, e2e[m.name], m.unit)
	}
	fmt.Fprintf(stdout, "e2e %-20s %14.6f ratio (failed %d / attempted %d)\n", "fail_frac", float64(failed)/float64(attempted), failed, attempted)

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	if traced == nil {
		for _, m := range e2eMetrics {
			res.Metrics[m.name] = metricValue{Value: e2e[m.name], Unit: m.unit}
		}
	} else {
		tlat := latencies(traced)
		fmt.Fprintf(stdout, "traced requests=%d latency_p50_ms=%.6f latency_p95_ms=%.6f req_per_s=%.6f\n",
			len(traced.samples), percentile(tlat, 0.50), percentile(tlat, 0.95), float64(countPassed(traced.samples, failures))/traced.wall.Seconds())
		layers := layerReport(traced, base)
		for _, m := range layerMetrics {
			fmt.Fprintf(stdout, "layer %-24s %14.6f %s\n", m.name, layers[m.name], m.unit)
			res.Metrics[m.name] = metricValue{Value: layers[m.name], Unit: m.unit}
		}
		for _, sh := range stageShares(traced) {
			fmt.Fprintf(stdout, "share %-24s %6.1f%%\n", sh.name, 100*sh.frac)
		}
		fmt.Fprintln(stdout, designCheck(w.name, phases, traced, layers))
		path := filepath.Join(cfg.out, fmt.Sprintf("servebench-spans-%s-s%d.jsonl", w.name, cfg.seed))
		if err := tr.write(path); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spans %s\n", path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if failed > 0 {
		return fmt.Errorf("%d of %d requests failed or returned wrong output", failed, attempted)
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// setUp starts a server and sends the warm-up requests; every one must
// succeed, and on a fresh server every one is a cache miss.
func setUp(ctx context.Context, jobDir string, warm []*request) (*server, []*sample, error) {
	srv, err := startServer(jobDir)
	if err != nil {
		return nil, nil, err
	}
	out := make([]*sample, len(warm))
	for i, r := range warm {
		s := srv.do(ctx, r, true)
		s.idx = -1 - i
		switch {
		case s.err != nil:
			return srv, nil, fmt.Errorf("warm-up request %d: %w", i, s.err)
		case !s.ok():
			return srv, nil, fmt.Errorf("warm-up request %d: status %d", i, s.status)
		case s.hit:
			return srv, nil, fmt.Errorf("warm-up request %d hit the cache of a fresh server", i)
		}
		out[i] = &s
	}
	return srv, out, nil
}

// sameResponses requires two set-ups to have produced byte-identical
// warm-up responses.
func sameResponses(a, b []*sample) error {
	for i := range a {
		if string(a[i].body) != string(b[i].body) {
			return fmt.Errorf("warm-up request %d answered differently by two fresh servers", i)
		}
	}
	return nil
}

// sampledWarm returns the warm-up responses that carry plan coverage
// (serve-hot's plans, which its timed hits replay byte for byte).
func sampledWarm(warm []*sample) []*sample {
	var out []*sample
	for _, s := range warm {
		if s.req.sample {
			out = append(out, s)
		}
	}
	return out
}

// smallTreeRequests sends the workload's exhaustive-check requests
// after the timed loop.
func smallTreeRequests(ctx context.Context, srv *server, w *workload, seed int64) ([]*sample, error) {
	if w.smallTrees == nil {
		return nil, nil
	}
	reqs, err := w.smallTrees(seed)
	if err != nil {
		return nil, err
	}
	out := make([]*sample, len(reqs))
	for i, r := range reqs {
		s := srv.do(ctx, r, true)
		s.idx = -100 - i
		out[i] = &s
	}
	return out, nil
}

type failure struct {
	s   *sample
	err error
}

// checkSamples runs the output checks on two goroutines and returns the
// mean plan coverage of the sampled requests and every failure, in
// sample order.
func checkSamples(samples []*sample) (float64, []failure) {
	type outcome struct {
		err error
		cov float64
		has bool
	}
	results := make([]outcome, len(samples))
	var (
		mu   sync.Mutex
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(samples) {
					return
				}
				cov, has, err := checkSample(samples[i])
				mu.Lock()
				results[i] = outcome{err: err, cov: cov, has: has}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	var (
		failures []failure
		sum      float64
		n        int
	)
	for i, o := range results {
		if o.err != nil {
			failures = append(failures, failure{samples[i], o.err})
		}
		if o.has {
			sum += o.cov
			n++
		}
	}
	if n == 0 {
		return 0, failures
	}
	return sum / float64(n), failures
}

// checkSample checks one response and, for sampled requests, returns
// the coverage of its planned circuit.
func checkSample(s *sample) (cov float64, has bool, err error) {
	if !s.ok() {
		if s.err != nil {
			return 0, false, s.err
		}
		return 0, false, fmt.Errorf("status %d", s.status)
	}
	r := s.req
	if s.body == nil {
		if s.inLoop || !keepBody(r) {
			return 0, false, nil
		}
		return 0, false, errors.New("no response body to check")
	}
	c, err := r.in.circuit()
	if err != nil {
		return 0, false, err
	}
	switch r.kind {
	case kindFaultsim:
		window := 0
		if r.dsim {
			window = dsimWindow
		}
		cov, err = checkFaultsim(c, s.body, r.k, window)
		return cov, err == nil && r.sample, err
	case kindATPG:
		return 0, false, checkATPG(c, s.body)
	}
	mod, err := checkPlan(c, r, s.body)
	if err != nil {
		return 0, false, err
	}
	if r.exact {
		return 0, false, checkCutsBound(c, r.k, s.body, true)
	}
	if r.greedy {
		if err := checkCutsBound(c, r.k, s.body, false); err != nil {
			return 0, false, err
		}
	}
	if !r.sample {
		return 0, false, nil
	}
	if r.kind == kindObserve {
		if err := checkObserveModel(c, s.body); err != nil {
			return 0, false, err
		}
	}
	cov, err = coverage(mod)
	return cov, err == nil, err
}

func countPassed(samples []*sample, failures []failure) int {
	bad := make(map[*sample]bool, len(failures))
	for _, f := range failures {
		bad[f.s] = true
	}
	n := 0
	for _, s := range samples {
		if !bad[s] {
			n++
		}
	}
	return n
}

// latencies returns the latencies (ms) of a phase's completed requests.
func latencies(ph *phase) []float64 {
	var out []float64
	for _, s := range ph.samples {
		if s.ok() {
			out = append(out, ms(s.lat))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// percentile is the nearest-rank percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// median is the middle value of xs, the mean of the two middle values
// for an even count, and 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// designCheck reports whether the traced run shows the workload loading
// the layer it was chosen for.
func designCheck(name string, phases []*phase, traced *phase, layers map[string]float64) string {
	var ok bool
	var detail string
	switch name {
	case "plan-cold":
		var shares []float64
		for _, s := range traced.samples {
			if s.layers != nil && s.layers["latency_ms"] > 0 {
				shares = append(shares, (s.layers["tpi.prune_ms"]+s.layers["tpi.control_ms"])/s.layers["latency_ms"])
			}
		}
		m := median(shares)
		ok, detail = m >= 0.70, fmt.Sprintf("median (tpi.prune_ms + tpi.control_ms) / latency = %.3f, want >= 0.70", m)
	case "serve-hot":
		var misses int64
		for _, ph := range phases {
			misses += ph.after.Cache.Misses - ph.before.Cache.Misses
		}
		ok, detail = misses == 0, fmt.Sprintf("cache misses after set-up = %d, want 0", misses)
	case "dp-trees":
		ok, detail = layers["implic.build_ms"] == 0, fmt.Sprintf("implic.build_ms = %g, want 0", layers["implic.build_ms"])
	case "verify-async":
		sh := stageShares(traced)
		engine := 0.0
		largest := share{}
		for _, x := range sh {
			switch x.name {
			case "fsim.run", "atpg.run":
				engine += x.frac
			default:
				if x.frac > largest.frac {
					largest = x
				}
			}
		}
		ok, detail = engine > largest.frac, fmt.Sprintf("fsim.run + atpg.run share = %.3f, largest other share %s = %.3f", engine, largest.name, largest.frac)
	}
	verdict := "holds"
	if !ok {
		verdict = "MISSED"
	}
	return fmt.Sprintf("design %s prediction %s: %s", name, verdict, detail)
}
