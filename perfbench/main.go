// Command perfbench is the repository's benchmark. It runs one named
// workload against the distance-join engine built from this checkout,
// checks every answer against a reference taken outside the timed
// runs, and prints one JSON result line:
//
//	{"correct": true, "attempted": 42, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics listed in
// BENCHMARK.json; with -trace 1 a separate traced run produces the
// per-layer metrics. A readable report (sample counts, tail
// percentiles, tie share) goes to standard error. See README.md for
// the workloads and the layer-to-metric map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload name: tiger-topk, points-deep or serve-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the request stream and replay shuffles")
	seconds := flag.Float64("seconds", 20, "seconds of measurement")
	traced := flag.Int("trace", 0, "1 runs the traced variant that reports per-layer metrics")
	flag.StringVar(&cfg.binDir, "bin-dir", "", "directory holding the distjoin-server binary (serve-mixed)")
	flag.StringVar(&cfg.workDir, "work-dir", os.TempDir(), "scratch directory for server address files")
	flag.Parse()

	cfg.seconds = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *traced == 1
	w, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (*traced != 0 && *traced != 1) {
		fail(fmt.Errorf("usage: perfbench -workload {%s} -seed N -seconds S -trace 0|1", workloadNames()))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := w(ctx, cfg)
	if err != nil {
		fail(err)
	}
	res.report(os.Stderr)
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	tiny     bool // small inputs (self-tests only)
	binDir   string
	workDir  string
	// corruptRef perturbs one reference pair after the references are
	// validated, so every check against it fails (self-tests only).
	corruptRef bool
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, config) (*result, error){
	"tiger-topk":  runTigerTopK,
	"points-deep": runPointsDeep,
	"serve-mixed": runServeMixed,
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}
