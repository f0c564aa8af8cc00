package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the self-tests check
// against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyConfig is a fast configuration of workload w; serve-mixed needs
// the server binary, built once per test binary.
func tinyConfig(t *testing.T, w string, trace bool) config {
	t.Helper()
	cfg := config{workload: w, seed: 7, seconds: time.Second, trace: trace, tiny: true, workDir: t.TempDir()}
	if w == "serve-mixed" {
		cfg.binDir = serverBinDir(t)
	}
	return cfg
}

var builtServerDir string

func serverBinDir(t *testing.T) string {
	t.Helper()
	if builtServerDir != "" {
		return builtServerDir
	}
	dir, err := os.MkdirTemp("", "perfbench-server")
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command("go", "build", "-o", filepath.Join(dir, "distjoin-server"), "distjoin/cmd/distjoin-server").CombinedOutput()
	if err != nil {
		t.Fatalf("build server: %v\n%s", err, out)
	}
	builtServerDir = dir
	return dir
}

func TestMain(m *testing.M) {
	code := m.Run()
	if builtServerDir != "" {
		os.RemoveAll(builtServerDir)
	}
	os.Exit(code)
}

func run(t *testing.T, cfg config) *result {
	t.Helper()
	res, err := workloads[cfg.workload](context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	return res
}

// TestEveryMetricEmitted runs the tiny mode of every workload, untraced
// and traced, and checks that the output names exactly the metrics of
// BENCHMARK.json with their units, and that every check passed.
func TestEveryMetricEmitted(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name
			if traced {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				res := run(t, tinyConfig(t, w.Name, traced))
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
					if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
						t.Errorf("metric %s = %v", m.Name, got.Value)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.notes)
				}
				if _, err := json.Marshal(res); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestCorruptedReferenceFails checks that answers differing from the
// reference count as failures and lower success_frac.
func TestCorruptedReferenceFails(t *testing.T) {
	for _, w := range []string{"points-deep", "serve-mixed"} {
		t.Run(w, func(t *testing.T) {
			cfg := tinyConfig(t, w, false)
			cfg.corruptRef = true
			res := run(t, cfg)
			if res.Correct || res.Failed == 0 {
				t.Fatalf("correct=%v failed=%d with a corrupted reference", res.Correct, res.Failed)
			}
			if v := res.Metrics["success_frac"].Value; v >= 1 {
				t.Errorf("success_frac = %v with a corrupted reference", v)
			}
		})
	}
}

// TestLagCheckTripsOnStalledServer drives the open loop against a fake
// server that stalls every request: at twice its capacity the
// generator falls progressively behind, which the lag check reports,
// while the same schedule against a prompt server passes.
func TestLagCheckTripsOnStalledServer(t *testing.T) {
	stall := 50 * time.Millisecond
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(stall)
		w.Write([]byte("{}"))
	}))
	defer stalled.Close()
	prompt := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}"))
	}))
	defer prompt.Close()

	// Two connections at 50 ms each serve 40 requests/s; offer 80.
	arrivals := schedule(1, 80, time.Second, numKinds)
	get := func(url string) func(context.Context, int) outcome {
		return func(ctx context.Context, kind int) outcome {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
			if err == nil {
				var resp *http.Response
				if resp, err = http.DefaultClient.Do(req); err == nil {
					resp.Body.Close()
				}
			}
			return outcome{err: err}
		}
	}
	outs, abandoned := openLoop(context.Background(), arrivals, serveConns, 5*time.Second, get(stalled.URL))
	if !lagGrows(outs, abandoned) {
		lags := make([]float64, len(outs))
		for i, o := range outs {
			lags[i] = o.lag()
		}
		t.Errorf("lag check passed a stalled server; lags %v", lags)
	}
	outs, abandoned = openLoop(context.Background(), arrivals, serveConns, 5*time.Second, get(prompt.URL))
	if lagGrows(outs, abandoned) {
		t.Errorf("lag check tripped on a prompt server")
	}
	if len(outs) != len(arrivals) {
		t.Errorf("%d outcomes for %d arrivals", len(outs), len(arrivals))
	}
}

func TestScheduleEqualShares(t *testing.T) {
	a := schedule(3, 30, 2*time.Second, numKinds)
	if len(a) != 60 {
		t.Fatalf("%d arrivals, want 60", len(a))
	}
	counts := make([]int, numKinds)
	for i, x := range a {
		counts[x.kind]++
		if i > 0 && x.due <= a[i-1].due {
			t.Fatalf("arrival %d not after %d", i, i-1)
		}
	}
	for k, c := range counts {
		if c != 20 {
			t.Errorf("kind %d: %d arrivals, want 20", k, c)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, p := tail(xs); p != 90 || v != 90 {
		t.Errorf("tail of 1..100 = p%v %v, want p90 90", p, v)
	}
	if v, p := tail(xs[:15]); p != 100 || v != 15 {
		t.Errorf("tail of 1..15 = p%v %v, want the maximum", p, v)
	}
	if v, p := tail(xs[:40]); p != 75 || v != 30 {
		t.Errorf("tail of 1..40 = p%v %v, want p75 30", p, v)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"distjoin/internal/hybridq.(*Queue).splitHeap":                                           "distjoin/internal/hybridq",
		"distjoin/internal/pqueue.(*Heap[go.shape.struct { distjoin/internal/geom.Rect }]).Push": "distjoin/internal/pqueue",
		"runtime.mallocgc":            "runtime",
		"distjoin.KDistanceJoin":      "distjoin",
		"sort.insertionSort":          "sort",
		"net/http.(*conn).serve":      "net/http",
		"distjoin/internal/sweep.Key": "distjoin/internal/sweep",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}

var spinSink float64

//go:noinline
func spin(d time.Duration) {
	x := 1.0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1_000_000; i++ {
			x = x*1.0000001 + 1e-9
		}
	}
	spinSink = x
}

// TestCPUShares profiles this process and checks the decoded shares.
func TestCPUShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, caused, n, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no samples")
	}
	total := 0.0
	for _, v := range shares {
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %v", total)
	}
	// The spin loop is in this package, which is no layer of the engine.
	if shares["other"] < 0.5 {
		t.Errorf("other share %v, want most of the profile: %v", shares["other"], shares)
	}
	// No frame of the engine is on the spin loop's stack.
	if caused["none"] < shares["other"]+shares["runtime"]-1e-9 {
		t.Errorf("caller view %v does not charge the spin loop to none", caused)
	}
	if _, _, _, err := cpuShares([]byte("not a profile")); err == nil || !strings.Contains(err.Error(), "profile") {
		t.Errorf("garbage profile: err = %v", err)
	}
}
