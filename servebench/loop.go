package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/serve"
)

// server is an in-process serve.Server listening on loopback.
type server struct {
	srv    *serve.Server
	ts     *httptest.Server
	base   string
	client *http.Client
	jobDir string
}

// startServer opens the server (and its job store when jobDir is set)
// on a fresh loopback port.
func startServer(jobDir string) (*server, error) {
	srv, err := serve.New(serve.Config{JobDir: jobDir})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	return &server{
		srv:  srv,
		ts:   ts,
		base: ts.URL,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			DisableCompression:  true,
		}},
		jobDir: jobDir,
	}, nil
}

// stop closes the listener, waits for outstanding requests, stops the
// job scheduler and removes the job store.
func (s *server) stop() error {
	s.srv.DrainStreams()
	s.ts.Close()
	s.srv.Close()
	s.client.CloseIdleConnections()
	if s.jobDir == "" {
		return nil
	}
	return os.RemoveAll(s.jobDir)
}

// sample is the outcome of one closed-loop request.
type sample struct {
	idx    int
	req    *request
	sent   time.Time
	lat    time.Duration // send to full body (sync) or submit to terminal event (async)
	submit time.Duration // async: POST to 202
	status int           // HTTP status of the engine response (async: of the result fetch)
	err    error         // transport, protocol or job failure
	hit    bool          // X-Cache: hit
	size   int           // response bytes
	body   []byte        // kept for the output checks when the request is checked
	inLoop bool          // the output was checked as it arrived (serve-hot) and body dropped
	layers map[string]float64
}

func (s *sample) ok() bool { return s.err == nil && s.status >= 200 && s.status < 300 }

// post sends one engine request and reads the whole response.
func (s *server) post(ctx context.Context, path string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data, err
}

func (s *server) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, err
	}
	return s.client.Do(req)
}

// do runs one request. Sync requests are timed from send to full body;
// async ones from submission to the terminal event, after which the
// result is fetched untimed.
func (s *server) do(ctx context.Context, r *request, keep bool) sample {
	out := sample{req: r}
	body, err := r.body()
	if err != nil {
		out.err = err
		return out
	}
	t0 := time.Now()
	out.sent = t0
	status, hdr, data, err := s.post(ctx, r.endpoint(), body)
	if !r.async {
		out.lat = time.Since(t0)
		out.status, out.err, out.size = status, err, len(data)
		out.hit = hdr.Get("X-Cache") == "hit"
		if keep {
			out.body = data
		}
		return out
	}
	out.submit = time.Since(t0)
	if err != nil || status != http.StatusAccepted {
		out.status, out.err = status, err
		if err == nil {
			out.err = fmt.Errorf("async submit: status %d: %s", status, bytes.TrimSpace(data))
		}
		return out
	}
	var ack struct {
		Location string `json:"location"`
	}
	if err := json.Unmarshal(data, &ack); err != nil || ack.Location == "" {
		out.err = fmt.Errorf("async submit: bad 202 body %q", data)
		return out
	}
	state, err := s.follow(ctx, ack.Location+"/events")
	out.lat = time.Since(t0)
	if err != nil {
		out.err = err
		return out
	}
	if state != "done" {
		out.err = fmt.Errorf("job %s ended %s", ack.Location, state)
		return out
	}
	resp, err := s.get(ctx, ack.Location)
	if err != nil {
		out.err = err
		return out
	}
	defer resp.Body.Close()
	out.status = resp.StatusCode
	data, err = io.ReadAll(resp.Body)
	if err != nil {
		out.err = err
		return out
	}
	if out.status != http.StatusOK {
		out.err = fmt.Errorf("job %s: status %d: %s", ack.Location, out.status, bytes.TrimSpace(data))
		return out
	}
	result, err := jobResult(data)
	if err != nil {
		out.err = fmt.Errorf("job %s: %w", ack.Location, err)
		return out
	}
	out.size = len(result)
	if keep {
		out.body = result
	}
	return out
}

// follow reads a job's NDJSON event stream to its terminal snapshot
// and returns the terminal state.
func (s *server) follow(ctx context.Context, path string) (string, error) {
	resp, err := s.get(ctx, path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events %s: status %d", path, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var snap struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &snap); err != nil {
			return "", fmt.Errorf("events %s: %w", path, err)
		}
		switch snap.State {
		case "done":
			return snap.State, nil
		case "failed", "canceled":
			return snap.State, fmt.Errorf("events %s: job %s: %s", path, snap.State, snap.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("events %s: stream ended before a terminal state", path)
}

// stats is the part of /v1/stats the benchmark reads.
type stats struct {
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
	Jobs struct {
		Failed   int   `json:"failed"`
		Requeued int64 `json:"requeued"`
	} `json:"jobs"`
}

func (s *server) stats(ctx context.Context) (stats, error) {
	var st stats
	resp, err := s.get(ctx, "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// phase is one timed closed loop.
type phase struct {
	samples   []*sample
	wall      time.Duration
	cpu       time.Duration // process user+sys CPU over the loop
	memory    []float64     // resident memory samples (MiB), every memoryTick
	exhausted bool          // the request pool ran out before the deadline
	before    stats
	after     stats
}

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memoryTick is the sampling period of resident memory during a loop.
const memoryTick = 20 * time.Millisecond

// residentMiB returns the memory the Go runtime holds from the OS:
// mapped minus released to the OS, in MiB.
func residentMiB(ss []metrics.Sample) float64 {
	metrics.Read(ss)
	return float64(ss[0].Value.Uint64()-ss[1].Value.Uint64()) / (1 << 20)
}

// sampleMemory records residentMiB every memoryTick until stop closes.
func sampleMemory(ctx context.Context, stop <-chan struct{}) []float64 {
	ss := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	out := []float64{residentMiB(ss)}
	tk := time.NewTicker(memoryTick)
	defer tk.Stop()
	for {
		select {
		case <-stop:
			return out
		case <-ctx.Done():
			return out
		case <-tk.C:
			out = append(out, residentMiB(ss))
		}
	}
}

// peakRSS returns the process's peak resident set size in MiB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// keepBody reports whether a response must be kept for the checks
// that run after the loop. Plan and atpg responses are small and all
// checked; faultsim responses are kept only when sampled.
func keepBody(r *request) bool {
	return r.sample || r.dsim || r.kind != kindFaultsim
}

// loop runs the closed-loop clients over pool[next:] until the
// deadline or the end of the pool. Each client sends its next request
// only after the previous one completed. When hot is non-nil (serve-hot)
// every response is compared with its warm-up response as soon as its
// latency is recorded, and then dropped. When tr is non-nil every
// completed request is replayed in-process stage by stage.
func (s *server) loop(ctx context.Context, pool []*request, next *atomic.Int64, d time.Duration, tr *tracer, hot map[*request][]byte) (*phase, error) {
	ph := &phase{}
	var err error
	if ph.before, err = s.stats(ctx); err != nil {
		return nil, err
	}
	var (
		mu        sync.Mutex
		wg        sync.WaitGroup
		clientsWG sync.WaitGroup
		exhausted atomic.Bool
	)
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		mem := sampleMemory(ctx, stop)
		mu.Lock()
		ph.memory = mem
		mu.Unlock()
	}()
	cpu0 := cpuTime()
	t0 := time.Now()
	deadline := t0.Add(d)
	for c := 0; c < clients; c++ {
		clientsWG.Add(1)
		go func() {
			defer clientsWG.Done()
			var mine []*sample
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(pool) {
					exhausted.Store(true)
					break
				}
				r := pool[i]
				smp := s.do(ctx, r, keepBody(r) || hot != nil)
				smp.idx = i
				if hot != nil && smp.ok() {
					smp.err = checkHot(hot[r], smp.body, smp.hit)
					smp.body, smp.inLoop = nil, true
				}
				if tr != nil && smp.ok() {
					var err error
					if smp.layers, err = tr.replay(i, r, &smp); err != nil {
						smp.err = err
					}
				}
				mine = append(mine, &smp)
			}
			mu.Lock()
			ph.samples = append(ph.samples, mine...)
			mu.Unlock()
		}()
	}
	clientsWG.Wait()
	ph.wall = time.Since(t0)
	ph.cpu = cpuTime() - cpu0
	close(stop)
	wg.Wait()
	ph.exhausted = exhausted.Load()
	if ph.after, err = s.stats(ctx); err != nil {
		return nil, err
	}
	return ph, nil
}
