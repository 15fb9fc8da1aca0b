package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/bench"
	"repro/internal/gen"
	"repro/internal/netlist"
)

// Request kinds: the engine invocation a request asks for.
const (
	kindHybrid   = "hybrid"
	kindCuts     = "cuts"
	kindObserve  = "observe"
	kindFaultsim = "faultsim"
	kindATPG     = "atpg"
)

// Fixed engine parameters of the workloads.
const (
	asyncPatterns = 8192 // verify-async /v1/faultsim pattern budget
	hotPatterns   = 4096 // serve-hot /v1/faultsim pattern budget
	lfsrSeed      = 1    // the server's default LFSR seed
	dsimWindow    = 256  // patterns of each sampled faultsim response checked against dsim
	coverPatterns = 4096 // LFSR patterns behind plan_fsim_coverage
)

// input is one generated circuit, held as the JSON string literal of its
// .bench text so requests on the same circuit share one copy. A spilled
// input keeps that text in a file instead of in memory.
type input struct {
	benchJSON []byte
	path      string // set by spill; benchJSON is then nil

	once sync.Once
	c    *netlist.Circuit
	err  error
}

func newInput(c *netlist.Circuit) (*input, error) {
	var b strings.Builder
	if err := bench.Write(&b, c); err != nil {
		return nil, err
	}
	js, err := json.Marshal(b.String())
	if err != nil {
		return nil, err
	}
	return &input{benchJSON: js}, nil
}

// spill moves the input's text to path, so the request pool does not
// hold it in memory during the timed loop.
func (in *input) spill(path string) error {
	if err := os.WriteFile(path, in.benchJSON, 0o644); err != nil {
		return err
	}
	in.benchJSON, in.path = nil, path
	return nil
}

// text returns the JSON string literal of the .bench text.
func (in *input) text() ([]byte, error) {
	if in.path == "" {
		return in.benchJSON, nil
	}
	return os.ReadFile(in.path)
}

// circuit parses the netlist exactly as the server does, so gate names
// and IDs match the server's view. Used by the checks and the traced
// replay, never inside a timed request.
func (in *input) circuit() (*netlist.Circuit, error) {
	in.once.Do(func() {
		js, err := in.text()
		if err != nil {
			in.err = err
			return
		}
		var text string
		if err := json.Unmarshal(js, &text); err != nil {
			in.err = err
			return
		}
		in.c, in.err = parseBench(text)
	})
	return in.c, in.err
}

func parseBench(text string) (*netlist.Circuit, error) {
	c, err := bench.ParseString(text, "request")
	if err != nil {
		return nil, err
	}
	return c, c.Validate()
}

// request is one closed-loop operation.
type request struct {
	kind  string
	in    *input
	opts  []byte // the JSON "options" object
	k     int    // planner budget (cuts, observe)
	learn bool   // atpg static learning
	async bool
	// sample marks the requests whose responses carry plan coverage.
	// It and the flags below are fixed by the seed, never by timing.
	sample bool
	// dsim marks faultsim requests checked against dsim, greedy cuts
	// requests checked against PlanCutsGreedy, exact cuts requests
	// checked against PlanCutsExhaustive.
	dsim, greedy, exact bool
}

func (r *request) endpoint() string {
	switch r.kind {
	case kindFaultsim:
		return "/v1/faultsim"
	case kindATPG:
		return "/v1/atpg"
	}
	return "/v1/plan"
}

// body renders the request envelope.
func (r *request) body() ([]byte, error) {
	js, err := r.in.text()
	if err != nil {
		return nil, err
	}
	b := make([]byte, 0, len(js)+len(r.opts)+48)
	b = append(b, `{"bench":`...)
	b = append(b, js...)
	b = append(b, `,"options":`...)
	b = append(b, r.opts...)
	if r.async {
		b = append(b, `,"mode":"async"`...)
	}
	return append(b, '}'), nil
}

func newRequest(kind string, in *input, k int, learn, async bool) *request {
	var opts string
	switch kind {
	case kindHybrid:
		opts = `{"planner":"hybrid"}`
	case kindCuts:
		opts = fmt.Sprintf(`{"planner":"cuts","k":%d}`, k)
	case kindObserve:
		opts = fmt.Sprintf(`{"planner":"observe","nop":%d}`, k)
	case kindFaultsim:
		opts = fmt.Sprintf(`{"patterns":%d}`, k)
	case kindATPG:
		opts = fmt.Sprintf(`{"learn":%t}`, learn)
	}
	return &request{kind: kind, in: in, opts: []byte(opts), k: k, learn: learn, async: async}
}

// workload is one traffic mix of the benchmark.
type workload struct {
	name string
	why  string
	// rate is the request rate, per second of run, that the
	// pre-generated pool covers: about twice the rate measured at the
	// commit that defined the benchmark. A run that exhausts the pool
	// ends early and says so.
	rate float64
	// pool returns n timed requests, in the order the closed loop
	// sends them; warm is the workload's set-up requests.
	pool func(seed int64, n int, warm []*request) ([]*request, error)
	// warm returns the set-up requests, sent by every set-up.
	warm func(seed int64) ([]*request, error)
	// smallTrees returns extra cuts requests checked against the
	// exhaustive planner after the timed loop.
	smallTrees func(seed int64) ([]*request, error)
}

var workloads = []*workload{
	{
		name: "plan-cold",
		why:  "distinct DAG and random-pattern-resistant circuits through the default hybrid planner: every request misses the cache and runs implic prune, COP greedy and the observe DP",
		rate: 25,
		pool: planColdPool,
		warm: planColdWarm,
	},
	{
		name:       "dp-trees",
		why:        "the paper's exact DPs (cuts, observe; k 4 and 16) on fanout-free trees: DP-kernel work with no implic prune and no control greedy",
		rate:       20,
		pool:       dpTreesPool,
		warm:       dpTreesWarm,
		smallTrees: dpTreesSmall,
	},
	{
		name: "serve-hot",
		why:  "large inline netlists from a set warmed in set-up: every timed request is a cache hit, so only decode, parse, canonicalize, hash and respond run",
		rate: 1000,
		pool: serveHotPool,
		warm: serveHotWarm,
	},
	{
		name: "verify-async",
		why:  "async faultsim and atpg jobs on a persistent job store: the only mix that journals, fsyncs and runs fsim and atpg; plan_fsim_coverage is the coverage its faultsim responses report",
		rate: 40,
		pool: verifyAsyncPool,
		warm: verifyAsyncWarm,
	},
}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// subSeed derives the generator seed of item i from the run seed
// (splitmix64 finalizer), so neighbouring run seeds share no circuits.
func subSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(int64(i))*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// stratum returns the ladder rung of the j-th draw: each block of
// len(ladder) draws visits every rung once, in a seeded order, so any
// run covers the sizes evenly instead of by chance.
func stratum(seed int64, j, rungs int) int {
	perm := rand.New(rand.NewSource(subSeed(seed, -1-j/rungs))).Perm(rungs)
	return perm[j%rungs]
}

// spread returns the size of the j-th draw from [lo, hi): the draw lies
// in band stratum(seed, j, rungs) of rungs equal bands, at a seeded
// offset within it. Sizes are continuous, so no percentile of the
// latencies sits in a gap between size classes.
func spread(seed int64, j, lo, hi, rungs int) int {
	u := rand.New(rand.NewSource(subSeed(seed, -1000-j))).Float64()
	return lo + int((float64(stratum(seed, j, rungs))+u)*float64(hi-lo)/float64(rungs))
}

// generate builds n items with fn on two goroutines, in index order.
func generate[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	var (
		mu       sync.Mutex
		firstErr error
		next     atomic.Int64
		wg       sync.WaitGroup
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				v, err := fn(i)
				mu.Lock()
				out[i] = v
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, firstErr
}

// spillPool writes the text of every pool input that set-up does not
// send to a file under dir and returns the number of files and their
// total size in bytes. The pool then holds no circuit text in memory, so
// the resident memory measured during the loop is the server's and the
// clients', not the pool's.
func spillPool(dir string, pool, warm []*request) (int, int64, error) {
	warmIn := make(map[*input]bool, len(warm))
	for _, r := range warm {
		warmIn[r.in] = true
	}
	var (
		files int
		size  int64
	)
	for _, r := range pool {
		in := r.in
		if warmIn[in] || in.path != "" {
			continue
		}
		size += int64(len(in.benchJSON))
		if err := in.spill(filepath.Join(dir, fmt.Sprintf("%d.json", files))); err != nil {
			return files, size, err
		}
		files++
	}
	return files, size, nil
}

// ---- plan-cold ----

// plan-cold DAGs have 200 to 500 gates and 16 inputs; at the commit
// that defined the benchmark they run about 13 requests a second, which
// leaves ten samples beyond p95 in a 20 s run. One request in four is a
// random-pattern-resistant circuit (3 to 5 AND cones of width 12 to 14
// in 80 to 260 glue gates, about 180 to 480 gates) whose cone faults
// need test points.
const (
	planColdMinGates, planColdMaxGates = 200, 500
	planColdMinGlue, planColdMaxGlue   = 80, 260
)

// planColdSample is how many leading requests carry plan coverage.
const planColdSample = 32

func planColdCircuit(seed int64, i int) *netlist.Circuit {
	s := subSeed(seed, i)
	if i%4 == 3 {
		j := i / 4
		glue := spread(seed+2, j, planColdMinGlue, planColdMaxGlue, 4)
		return gen.RPResistant(s, 3+j%3, 12+stratum(seed+3, j, 3), glue)
	}
	gates := spread(seed+1, i-i/4, planColdMinGates, planColdMaxGates, 5)
	return gen.RandomDAG(s, 16, gates, gen.DAGOptions{})
}

func planColdPool(seed int64, n int, _ []*request) ([]*request, error) {
	return generate(n, func(i int) (*request, error) {
		in, err := newInput(planColdCircuit(seed, i))
		if err != nil {
			return nil, err
		}
		r := newRequest(kindHybrid, in, 0, false, false)
		r.sample = i < planColdSample
		return r, nil
	})
}

// warmSeed seeds the set-up circuits of the cold workloads: one
// mid-sized request of each kind the workload sends. They are the same
// for every run seed, so setup_s does not vary with it.
const warmSeed = 0

func planColdWarm(int64) ([]*request, error) {
	dag, err := newInput(gen.RandomDAG(subSeed(warmSeed, -100), 16, 350, gen.DAGOptions{}))
	if err != nil {
		return nil, err
	}
	rpr, err := newInput(gen.RPResistant(subSeed(warmSeed, -101), 4, 13, 170))
	if err != nil {
		return nil, err
	}
	return []*request{newRequest(kindHybrid, dag, 0, false, false), newRequest(kindHybrid, rpr, 0, false, false)}, nil
}

// ---- dp-trees ----

// dp-trees trees have 2000 to 8000 leaves; each block of five trees
// has one in each fifth of that range.
const (
	dpTreeMinLeaves, dpTreeMaxLeaves = 2000, 8000
	dpTreeBands                      = 5
)

// dpTreeCombos are the four requests sent on every tree. Their options
// differ, so each is a cache miss.
var dpTreeCombos = []struct {
	kind string
	k    int
}{{kindCuts, 4}, {kindObserve, 4}, {kindCuts, 16}, {kindObserve, 16}}

// One k=16 request on each of the first dpTreesSampled trees carries
// plan coverage, cuts on even trees and observe on odd ones; k=4 plans
// leave these trees nearly as random-pattern resistant as they were.
// Cuts requests on the smallest-band trees among the first
// dpTreesGreedy are checked against PlanCutsGreedy, whose cost grows
// quadratically (0.3 s at 2000 leaves, 6 to 14 s at 8000).
const (
	dpTreesSampled = 32
	dpTreesGreedy  = 10
)

func dpTreesPool(seed int64, n int, _ []*request) ([]*request, error) {
	trees := (n + len(dpTreeCombos) - 1) / len(dpTreeCombos)
	ins, err := generate(trees, func(t int) (*input, error) {
		leaves := spread(seed, t, dpTreeMinLeaves, dpTreeMaxLeaves, dpTreeBands)
		return newInput(gen.RandomTree(subSeed(seed, t), leaves, gen.TreeOptions{}))
	})
	if err != nil {
		return nil, err
	}
	out := make([]*request, 0, trees*len(dpTreeCombos))
	for t, in := range ins {
		smallest := stratum(seed, t, dpTreeBands) == 0
		for _, cb := range dpTreeCombos {
			r := newRequest(cb.kind, in, cb.k, false, false)
			r.sample = t < dpTreesSampled && cb.k == 16 && (cb.kind == kindCuts) == (t%2 == 0)
			r.greedy = cb.kind == kindCuts && smallest && t < dpTreesGreedy
			out = append(out, r)
		}
	}
	return out, nil
}

func dpTreesWarm(int64) ([]*request, error) {
	in, err := newInput(gen.RandomTree(subSeed(warmSeed, -100), 2000, gen.TreeOptions{}))
	if err != nil {
		return nil, err
	}
	return []*request{newRequest(kindCuts, in, 4, false, false), newRequest(kindObserve, in, 4, false, false)}, nil
}

// dpTreesSmall returns eight seeded trees of 10 to 17 leaves, small
// enough for PlanCutsExhaustive.
func dpTreesSmall(seed int64) ([]*request, error) {
	var out []*request
	for i := 0; i < 8; i++ {
		in, err := newInput(gen.RandomTree(subSeed(seed, -200-i), 10+i, gen.TreeOptions{}))
		if err != nil {
			return nil, err
		}
		r := newRequest(kindCuts, in, 4, false, false)
		r.exact = true
		out = append(out, r)
	}
	return out, nil
}

// ---- serve-hot ----

// serveHotGates are the sizes of the warmed set (gates, 32 inputs):
// 60 to 160 KB of .bench text per request body.
var serveHotGates = []int{2000, 2600, 3200, 3800, 4400, 5000}

// serveHotWarm returns the warmed set: an observe plan and a faultsim
// run on each circuit. The timed loop repeats exactly these requests.
func serveHotWarm(seed int64) ([]*request, error) {
	ins, err := generate(len(serveHotGates), func(i int) (*input, error) {
		return newInput(gen.RandomDAG(subSeed(seed, i), 32, serveHotGates[i], gen.DAGOptions{}))
	})
	if err != nil {
		return nil, err
	}
	var out []*request
	for _, in := range ins {
		p := newRequest(kindObserve, in, 4, false, false)
		p.sample = true
		out = append(out, p, newRequest(kindFaultsim, in, hotPatterns, false, false))
	}
	return out, nil
}

// serveHotPool draws the timed requests from the warmed set; the pool
// holds pointers into it, so its length costs no memory.
func serveHotPool(seed int64, n int, warm []*request) ([]*request, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, -300)))
	out := make([]*request, n)
	for i := range out {
		out[i] = warm[rng.Intn(len(warm))]
	}
	return out, nil
}

// ---- verify-async ----

// verify-async faultsim circuits have 1000 to 2000 gates and 32
// inputs; atpg circuits 80 to 150 gates and 16 inputs.
const (
	verifyFaultsimMin, verifyFaultsimMax = 1000, 2000
	verifyATPGMin, verifyATPGMax         = 80, 150
)

// The leading verifyDsim faultsim jobs are checked against dsim, which
// costs about 0.3 ms per pattern on 1000 gates; the leading
// verifySampled carry plan coverage.
const (
	verifyDsim    = 16
	verifySampled = 32
)

// verifyAsyncPool alternates faultsim and atpg jobs; every other atpg
// job asks for static learning. The faultsim DAGs draw fanins from a
// 256-signal window, which keeps generation linear in circuit size.
func verifyAsyncPool(seed int64, n int, _ []*request) ([]*request, error) {
	return generate(n, func(i int) (*request, error) {
		j := i / 2
		if i%2 == 0 {
			gates := spread(seed, j, verifyFaultsimMin, verifyFaultsimMax, 5)
			in, err := newInput(gen.RandomDAG(subSeed(seed, i), 32, gates, gen.DAGOptions{Locality: 256}))
			if err != nil {
				return nil, err
			}
			r := newRequest(kindFaultsim, in, asyncPatterns, false, true)
			r.sample = j < verifySampled
			r.dsim = j < verifyDsim
			return r, nil
		}
		gates := spread(seed+1, j, verifyATPGMin, verifyATPGMax, 4)
		in, err := newInput(gen.RandomDAG(subSeed(seed, i), 16, gates, gen.DAGOptions{}))
		if err != nil {
			return nil, err
		}
		return newRequest(kindATPG, in, 0, j%2 == 1, true), nil
	})
}

func verifyAsyncWarm(int64) ([]*request, error) {
	fs, err := newInput(gen.RandomDAG(subSeed(warmSeed, -100), 32, 1500, gen.DAGOptions{Locality: 256}))
	if err != nil {
		return nil, err
	}
	at, err := newInput(gen.RandomDAG(subSeed(warmSeed, -101), 16, 110, gen.DAGOptions{}))
	if err != nil {
		return nil, err
	}
	return []*request{
		newRequest(kindFaultsim, fs, asyncPatterns, false, true),
		newRequest(kindATPG, at, 0, true, true),
	}, nil
}
