package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"distjoin"
	"distjoin/internal/rtree"
)

// serve-mixed: distjoin-server -demo N in its own process, driven by
// an open loop of equal shares of three request kinds over at most
// two connections.
const (
	kindKDist = iota
	kindWithin
	kindIncremental
	numKinds
)

var kindNames = [numKinds]string{"kdist", "within", "incremental"}

// serveSpec sizes serve-mixed.
type serveSpec struct {
	n           int       // objects per demo data set
	k           int       // kdist k
	withinLimit int       // within limit
	page, pages int       // incremental page size and page count
	refRate     float64   // the reference rate, requests/s
	ladder      []float64 // offered rates above the reference, ascending
	latencyMax  float64   // kdist tail limit for max_rate_rps, seconds
}

func serveSpecFor(tiny bool) serveSpec {
	if tiny {
		return serveSpec{n: tinyPointsN, k: 100, withinLimit: 100, page: 16, pages: 3,
			refRate: 20, ladder: []float64{40}, latencyMax: 1}
	}
	return serveSpec{n: pointsN, k: 100, withinLimit: 1000, page: 64, pages: 3,
		refRate: 12, ladder: []float64{24, 60}, latencyMax: 0.5}
}

// serveConns is the open loop's connection count: nproc of the
// 2-vCPU reference box.
const serveConns = 2

// serverProc is a running distjoin-server.
type serverProc struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	log    *bytes.Buffer
	waited chan error
}

// startServer launches the server binary and waits until /healthz
// answers, returning the time from launch to ready.
func startServer(ctx context.Context, bin, workDir string, n int, seed int64, i int) (*serverProc, float64, error) {
	addrFile := filepath.Join(workDir, fmt.Sprintf("addr-%d-%d", os.Getpid(), i))
	_ = os.Remove(addrFile)
	t := time.Now()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-demo", strconv.Itoa(n), "-seed", strconv.FormatInt(seed, 10), "-request-log=false")
	p := &serverProc{cmd: cmd, log: &bytes.Buffer{}, waited: make(chan error, 1)}
	cmd.Stdout, cmd.Stderr = p.log, p.log
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start server: %w", err)
	}
	go func() { p.waited <- cmd.Wait() }()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			p.base = "http://" + strings.TrimSpace(string(b))
			if resp, err := http.Get(p.base + "/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					_ = os.Remove(addrFile)
					return p, time.Since(t).Seconds(), nil
				}
			}
		}
		select {
		case err := <-p.waited:
			p.waited <- err
			return nil, 0, fmt.Errorf("server exited before ready: %v: %s", err, p.log.String())
		case <-ctx.Done():
			p.stop()
			return nil, 0, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, 0, errors.New("server not ready after 2 minutes")
		}
	}
}

// stop drains the server with SIGTERM, killing it if it has not
// exited in 15 s, and waits for it.
func (p *serverProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.waited:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.waited
	}
}

// serveRefs are the facade answers server responses are checked
// against.
type serveRefs struct {
	kdist, incremental, within []distjoin.Pair
}

type wirePair struct {
	Left  int64   `json:"left"`
	Right int64   `json:"right"`
	Dist  float64 `json:"dist"`
}

type wireResponse struct {
	Pairs   []wirePair `json:"pairs"`
	Cursor  string     `json:"cursor"`
	Done    bool       `json:"done"`
	Explain *struct {
		Summary struct {
			DurationUS int64 `json:"duration_us"`
		} `json:"summary"`
	} `json:"explain"`
}

func matchWire(got []wirePair, want []distjoin.Pair) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d pairs, want %d", len(got), len(want))
	}
	for i, p := range got {
		w := want[i]
		if p.Left != w.LeftID || p.Right != w.RightID || p.Dist != w.Dist {
			return fmt.Errorf("pair %d is %+v, want (%d, %d, %v)", i, p, w.LeftID, w.RightID, w.Dist)
		}
	}
	return nil
}

// client issues serve-mixed requests over at most serveConns
// connections.
type client struct {
	base    string
	http    *http.Client
	spec    serveSpec
	refs    *serveRefs
	explain bool
}

func newClient(base string, spec serveSpec, refs *serveRefs) *client {
	tr := &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: time.Minute}, spec: spec, refs: refs}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// post sends one request and decodes the response into out. It
// returns the admission wait the server reported and the body size.
func (c *client) post(ctx context.Context, path string, body any, out *wireResponse) (float64, int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(b))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, len(raw), err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, len(raw), fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	wait := 0.0
	if h := resp.Header.Get("X-Distjoin-Admission-Wait"); h != "" {
		us, err := strconv.ParseInt(h, 10, 64)
		if err != nil {
			return 0, len(raw), fmt.Errorf("bad admission-wait header %q", h)
		}
		wait = float64(us) / 1e6
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return wait, len(raw), fmt.Errorf("%s: decode: %w", path, err)
		}
	}
	return wait, len(raw), nil
}

func (c *client) query(path string) string {
	if c.explain {
		return path + "?explain=1"
	}
	return path
}

// do runs one request of the given kind and checks its answer. first
// is set for incremental sessions, relative to the session's start.
func (c *client) do(ctx context.Context, kind int) outcome {
	var (
		o    outcome
		resp wireResponse
		err  error
		n    int
	)
	switch kind {
	case kindKDist:
		o.admission, o.bytes, err = c.post(ctx, c.query("/v1/join/k"),
			map[string]any{"left": "left", "right": "right", "k": c.spec.k}, &resp)
		if err == nil {
			err = matchWire(resp.Pairs, c.refs.kdist)
		}
	case kindWithin:
		o.admission, o.bytes, err = c.post(ctx, c.query("/v1/join/within"),
			map[string]any{"left": "left", "right": "right", "max_dist": withinMaxDist, "limit": c.spec.withinLimit}, &resp)
		if err == nil {
			err = matchWire(resp.Pairs, c.refs.within)
		}
	case kindIncremental:
		start := time.Now()
		var got []wirePair
		o.admission, o.bytes, err = c.post(ctx, "/v1/join/incremental",
			map[string]any{"left": "left", "right": "right", "page_size": c.spec.page}, &resp)
		o.first = time.Since(start)
		cursor := resp.Cursor
		for p := 1; err == nil; p++ {
			got = append(got, resp.Pairs...)
			if p == c.spec.pages || resp.Done {
				break
			}
			resp = wireResponse{}
			_, n, err = c.post(ctx, "/v1/join/incremental/next", map[string]any{"cursor": cursor, "page_size": c.spec.page}, &resp)
			o.bytes += n
		}
		if err == nil && cursor != "" && !resp.Done {
			_, n, err = c.post(ctx, "/v1/join/incremental/close", map[string]any{"cursor": cursor}, nil)
			o.bytes += n
		}
		if err == nil {
			err = matchWire(got, c.refs.incremental)
		}
	}
	if resp.Explain != nil {
		o.engine = float64(resp.Explain.Summary.DurationUS) / 1e6
	}
	o.err = err
	return o
}

// serverTotalAlloc reads the server's cumulative heap allocation from
// /debug/vars.
func (c *client) serverTotalAlloc(ctx context.Context) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/debug/vars", nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var v struct {
		Runtime struct {
			TotalAlloc uint64 `json:"total_alloc_bytes"`
		} `json:"runtime"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return 0, fmt.Errorf("/debug/vars: %w", err)
	}
	return v.Runtime.TotalAlloc, nil
}

// serverProfile fetches a CPU profile of secs seconds from the server.
func serverProfile(ctx context.Context, base string, secs int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", base, secs), nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("profile: status %d: %v", resp.StatusCode, err)
	}
	return b, nil
}

// checkOutcomes counts every outcome's correctness into res.
func checkOutcomes(res *result, outs []outcome) {
	for _, o := range outs {
		res.check(o.err == nil, "%s: %v", kindNames[o.kind], o.err)
	}
}

// rung is one open-loop phase at a fixed offered rate.
type rung struct {
	rate      float64
	outs      []outcome
	abandoned int
}

func (c *client) runRung(ctx context.Context, seed int64, rate float64, dur time.Duration) rung {
	outs, abandoned := openLoop(ctx, schedule(seed, rate, dur, numKinds), serveConns, 2*time.Second, c.do)
	return rung{rate: rate, outs: outs, abandoned: abandoned}
}

// latencies returns the latencies from due time of the outcomes of one
// kind.
func (r rung) latencies(kind int) []float64 {
	var out []float64
	for _, o := range r.outs {
		if o.kind == kind && o.err == nil {
			out = append(out, o.latency())
		}
	}
	return out
}

// passes reports whether the rung met the latency limit on the kdist
// tail with nothing failed and no growing backlog.
func (r rung) passes(limit float64) bool {
	for _, o := range r.outs {
		if o.err != nil {
			return false
		}
	}
	t, _ := tail(r.latencies(kindKDist))
	return t <= limit && !lagGrows(r.outs, r.abandoned)
}

// achieved is the completion rate: requests completed per second of
// the phase, up to the last completion.
func (r rung) achieved() float64 {
	var last time.Duration
	for _, o := range r.outs {
		last = max(last, o.done)
	}
	return float64(len(r.outs)) / last.Seconds()
}

// goodput is the rate of requests that completed correctly within the
// latency limit.
func (r rung) goodput(limit float64) float64 {
	var last time.Duration
	good := 0
	for _, o := range r.outs {
		last = max(last, o.done)
		if o.err == nil && o.latency() <= limit {
			good++
		}
	}
	return float64(good) / last.Seconds()
}

// closedLoop runs kdist requests from serveConns clients back to back
// for dur, returning completed requests per second.
func (c *client) closedLoop(ctx context.Context, res *result, dur time.Duration) (float64, int) {
	outs := make([][]outcome, serveConns)
	start := time.Now()
	var wg sync.WaitGroup
	for g := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur && ctx.Err() == nil {
				outs[g] = append(outs[g], c.do(ctx, kindKDist))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	n := 0
	for _, gs := range outs {
		checkOutcomes(res, gs)
		n += len(gs)
	}
	return float64(n) / elapsed, n
}

func runServeMixed(ctx context.Context, cfg config) (*result, error) {
	spec := serveSpecFor(cfg.tiny)
	res := newResult()
	depth := spec.page * spec.pages
	// Only the traced run reports the in-process set-up times, so only it
	// repeats the in-process set-up; setup_s is the server's.
	repeats := 1
	if cfg.trace {
		repeats = setupRepeats
	}
	d, _, genS, buildS, err := setup(func() ([]rtree.Item, []rtree.Item) { return demoData(pointsDataSeed, spec.n) }, repeats)
	if err != nil {
		return nil, err
	}
	if err := computeReferences(res, cfg, d, max(spec.k, depth), spec.withinLimit); err != nil {
		return nil, err
	}
	refs := &serveRefs{kdist: d.ref[:spec.k], incremental: d.ref[:depth], within: d.within}
	zeros, heap := tieNote(res, refs.kdist)

	var (
		setups []float64
		srv    *serverProc
	)
	for i := 0; i < setupRepeats; i++ {
		if srv != nil {
			srv.stop()
		}
		p, s, err := startServer(ctx, filepath.Join(cfg.binDir, "distjoin-server"), cfg.workDir, spec.n, pointsDataSeed, i)
		if err != nil {
			return nil, err
		}
		srv = p
		setups = append(setups, s)
	}
	defer srv.stop()
	c := newClient(srv.base, spec, refs)
	defer c.close()

	if cfg.trace {
		res.set("datagen.gen_s", "s", median(genS), len(genS))
		res.set("rtree.build_s", "s", median(buildS), len(buildS))
		res.set("ties.zero_pairs", "count", float64(zeros), 1)
		res.set("ties.heap_pairs", "count", float64(heap), 1)
		return serveTraced(ctx, cfg, spec, d, refs, srv, c, res)
	}

	sampler, err := sampleRSS(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	// Warm up at the reference rate, checked but not timed.
	warm := c.runRung(ctx, cfg.seed-1, spec.refRate, cfg.seconds*5/100)
	checkOutcomes(res, warm.outs)
	a0, err := c.serverTotalAlloc(ctx)
	if err != nil {
		return nil, err
	}
	ref := c.runRung(ctx, cfg.seed, spec.refRate, cfg.seconds*70/100)
	a1, err := c.serverTotalAlloc(ctx)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	checkOutcomes(res, ref.outs)
	res.check(ref.abandoned == 0, "%d requests abandoned at the reference rate", ref.abandoned)
	qps, nq := c.closedLoop(ctx, res, cfg.seconds*10/100)

	// The ladder: the highest rate that passes, with every lower rate
	// passing too. Rates above the first failure are not run.
	best := ref
	passed := ref.passes(spec.latencyMax)
	rungDur := cfg.seconds * 15 / 100 / time.Duration(len(spec.ladder))
	for i, rate := range spec.ladder {
		if !passed {
			break
		}
		r := c.runRung(ctx, cfg.seed+int64(i)+1, rate, rungDur)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		checkOutcomes(res, r.outs)
		t, pct := tail(r.latencies(kindKDist))
		res.notef("rung %g req/s: kdist p%g %.3fs, lag grows %v, achieved %.2f/s", rate, pct, t, lagGrows(r.outs, r.abandoned), r.achieved())
		if passed = r.passes(spec.latencyMax); passed {
			best = r
		}
	}
	maxRate := best.achieved()
	if !ref.passes(spec.latencyMax) {
		maxRate = ref.goodput(spec.latencyMax)
		res.notef("the reference rate %g req/s misses the limit; max_rate_rps is its goodput", spec.refRate)
	}
	rss, err := sampler.finish()
	if err != nil {
		return nil, err
	}

	var firsts, streams []float64
	for _, o := range ref.outs {
		if o.kind == kindIncremental && o.err == nil {
			firsts = append(firsts, (o.first - o.due).Seconds())
			streams = append(streams, float64(depth)/o.latency())
		}
	}
	res.set("setup_s", "s", median(setups), len(setups))
	res.setLatency("query_p50_s", "query_tail_s", ref.latencies(kindKDist))
	res.set("queries_per_s", "1/s", qps, nq)
	res.notef("queries_per_s: %d closed-loop clients of kdist", serveConns)
	res.set("first_page_s", "s", median(firsts), len(firsts))
	res.set("stream_pairs_per_s", "1/s", median(streams), len(streams))
	within := ref.latencies(kindWithin)
	res.set("within_p50_s", "s", median(within), len(within))
	res.set("max_rate_rps", "1/s", maxRate, len(best.outs))
	res.notef("max_rate_rps: offered %g req/s (limit: kdist tail <= %gs)", best.rate, spec.latencyMax)
	res.set("alloc_mb_per_query", "MB", float64(a1-a0)/float64(max(len(ref.outs), 1))/1e6, len(ref.outs))
	res.set("peak_rss_mb", "MB", rss, 1)
	res.setSuccess()
	return res, nil
}

// serveTraced is serve-mixed's traced run: in-process instrumented
// runs of the three request kinds for the engine's layers, the replay
// probes, a profiled open loop at the reference rate, and an
// ?explain=1 open loop for the serving layer's split.
func serveTraced(ctx context.Context, cfg config, spec serveSpec, d *dataset, refs *serveRefs, srv *serverProc, c *client, res *result) (*result, error) {
	r, err := newRig(d)
	if err != nil {
		return nil, err
	}
	depth := spec.page * spec.pages
	start := time.Now()
	for time.Since(start) < cfg.seconds/10 || r.acc.ops == 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		_, err := r.measure(refs.kdist, r.topK(spec.k))
		res.check(err == nil, "in-process kdist: %v", err)
		_, err = r.measure(refs.within, r.within(spec.withinLimit))
		res.check(err == nil, "in-process within: %v", err)
		_, err = r.measure(refs.incremental, r.incremental(depth))
		res.check(err == nil, "in-process incremental: %v", err)
	}
	r.acc.emit(res)
	if err := runProbes(ctx, res, cfg.seed, r.lt, r.rt, refs.kdist, r.model.Rho()); err != nil {
		return nil, err
	}

	// Profiled phase: the reference rate, untraced.
	phase := cfg.seconds * 35 / 100
	secs := max(int(phase.Seconds()), 1)
	type prof struct {
		b   []byte
		err error
	}
	profCh := make(chan prof, 1)
	go func() {
		b, err := serverProfile(ctx, srv.base, secs)
		profCh <- prof{b, err}
	}()
	plain := c.runRung(ctx, cfg.seed, spec.refRate, phase)
	p := <-profCh
	if p.err != nil {
		return nil, p.err
	}
	if err := setCPUShares(res, p.b); err != nil {
		return nil, err
	}
	checkOutcomes(res, plain.outs)

	// Explain phase: the same rate with ?explain=1 on kdist and within.
	c.explain = true
	explained := c.runRung(ctx, cfg.seed+1, spec.refRate, phase)
	c.explain = false
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	checkOutcomes(res, explained.outs)

	var waits, lags, engine, overhead []float64
	body := 0
	for _, o := range plain.outs {
		waits = append(waits, o.admission)
		lags = append(lags, o.lag())
		body += o.bytes
	}
	for _, o := range explained.outs {
		if o.engine > 0 {
			engine = append(engine, o.engine)
			overhead = append(overhead, (o.done-o.sent).Seconds()-o.engine)
		}
	}
	res.set("serving.admission_wait_p50_s", "s", median(waits), len(waits))
	wt, wpct := tail(waits)
	res.set("serving.admission_wait_tail_s", "s", wt, len(waits))
	res.notef("serving.admission_wait_tail_s is p%g", wpct)
	res.set("serving.engine_s", "s", median(engine), len(engine))
	res.set("serving.overhead_s", "s", median(overhead), len(overhead))
	res.set("serving.response_bytes", "B", float64(body)/float64(max(len(plain.outs), 1)), len(plain.outs))
	lt, lpct := tail(lags)
	res.set("loadgen.lag_tail_s", "s", lt, len(lags))
	res.notef("loadgen.lag_tail_s is p%g", lpct)
	res.set("trace.overhead_frac", "ratio",
		median(explained.latencies(kindKDist))/median(plain.latencies(kindKDist))-1, len(explained.outs))
	return res, nil
}
