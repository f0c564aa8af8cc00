package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"distjoin"
	"distjoin/internal/datagen"
	"distjoin/internal/hybridq"
	"distjoin/internal/rtree"
)

// Settings shared by the workloads. Every query runs with default
// Options: AM-KDJ (AM-IDJ for incremental joins), 512 KiB of main
// queue, 512 KiB of R-tree buffer, serial.
const (
	// tigerDataSeed and pointsDataSeed fix each workload's geometry.
	// The run seed varies the request stream and the replay shuffles
	// instead: at the seed commit, the tie count of TIGER-like data
	// moves from 8,720 to 12,542 distance-0 pairs across data seeds and
	// query time with it (7.2 s vs 18.5 s), and AM-IDJ's depth on point
	// data from 1.1 s to 3.3 s, which would swamp any bound.
	tigerDataSeed  = 20000516 // the experiments harness default
	pointsDataSeed = 42       // distjoin-server's -demo default
	tigerScale     = 0.5      // of the paper's 633,461 x 189,642
	tinyTigerScale = 0.02
	pointsN        = 200000 // distjoin-server -demo 200000
	tinyPointsN    = 4000

	defaultQueueMem = 512 << 10
	// refQueueMem keeps a reference run's whole main queue in memory,
	// so the reference takes a different path through the hybrid queue
	// than the default-budget runs it checks.
	refQueueMem = 256 << 20

	withinMaxDist = 5000
	setupRepeats  = 5
	// clients is the closed-loop concurrency of max_rate_rps on the
	// facade workloads: nproc of the 2-vCPU reference box.
	clients = 2
)

// facadeSpec describes a workload that calls the library directly.
type facadeSpec struct {
	gen         func() (left, right []rtree.Item)
	ks          []int // the single client's top-k sizes, cycled
	incDepth    int   // incremental join depth; 0 runs none
	incPage     int   // incremental page size (first_page_s)
	withinLimit int
}

func tigerSpec(tiny bool) facadeSpec {
	scale, ks := tigerScale, []int{1000, 10000, 100000}
	if tiny {
		scale, ks = tinyTigerScale, []int{100, 1000, 3000}
	}
	return facadeSpec{
		gen: func() ([]rtree.Item, []rtree.Item) {
			return datagen.TigerStreets(tigerDataSeed, int(633461*scale)),
				datagen.TigerHydro(tigerDataSeed+1, int(189642*scale))
		},
		ks:          ks,
		withinLimit: 1000,
	}
}

func pointsSpec(tiny bool) facadeSpec {
	s := facadeSpec{ks: []int{100000}, incDepth: 20000, incPage: 1000, withinLimit: 1000}
	n := pointsN
	if tiny {
		s = facadeSpec{ks: []int{3000}, incDepth: 1000, incPage: 100, withinLimit: 100}
		n = tinyPointsN
	}
	s.gen = func() ([]rtree.Item, []rtree.Item) { return demoData(pointsDataSeed, n) }
	return s
}

// demoData is distjoin-server's -demo data set.
func demoData(seed int64, n int) (left, right []rtree.Item) {
	return datagen.Uniform(seed, n, datagen.World, 0),
		datagen.GaussianClusters(seed+1, n, 8, datagen.World, 500, 0)
}

func runTigerTopK(ctx context.Context, cfg config) (*result, error) {
	return runFacade(ctx, cfg, tigerSpec(cfg.tiny))
}

func runPointsDeep(ctx context.Context, cfg config) (*result, error) {
	return runFacade(ctx, cfg, pointsSpec(cfg.tiny))
}

// cycle is the single client's operation sequence: top-k sizes, with 0
// standing for one incremental join.
func (s facadeSpec) cycle() []int {
	c := append([]int(nil), s.ks...)
	if s.incDepth > 0 {
		c = append(c, 0)
	}
	return c
}

// tracedCycle is the traced passes' sequence: the largest k, and the
// incremental join if the workload has one. It keeps a tiger-topk
// traced run, which also replays the hybrid queue, to about 60 s at
// the commit that added this benchmark.
func (s facadeSpec) tracedCycle() []int {
	c := []int{slices.Max(s.ks)}
	if s.incDepth > 0 {
		c = append(c, 0)
	}
	return c
}

func (s facadeSpec) refK() int { return max(slices.Max(s.ks), s.incDepth) }

// dataset is one workload's inputs and indexes.
type dataset struct {
	left, right []rtree.Item
	L, R        *distjoin.Index
	ref         []distjoin.Pair // reference answer at refK
	within      []distjoin.Pair // reference within-join answer
}

// setup generates and indexes the inputs repeats times, returning the
// last copy and each repeat's total, generation and index-build times.
func setup(gen func() ([]rtree.Item, []rtree.Item), repeats int) (d *dataset, total, genS, buildS []float64, err error) {
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		left, right := gen()
		t1 := time.Now()
		L, err := distjoin.NewIndex(toObjects(left), nil)
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("index left: %w", err)
		}
		R, err := distjoin.NewIndex(toObjects(right), nil)
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("index right: %w", err)
		}
		t2 := time.Now()
		d = &dataset{left: left, right: right, L: L, R: R}
		total = append(total, t2.Sub(t0).Seconds())
		genS = append(genS, t1.Sub(t0).Seconds())
		buildS = append(buildS, t2.Sub(t1).Seconds())
	}
	return d, total, genS, buildS, nil
}

func toObjects(items []rtree.Item) []distjoin.Object {
	objs := make([]distjoin.Object, len(items))
	for i, it := range items {
		objs[i] = distjoin.Object{ID: it.Obj, Rect: it.Rect}
	}
	return objs
}

// computeReferences takes the answers every timed run is checked
// against, outside the timed runs: the top-refK pairs with the whole
// queue in memory, and one within join. Both are validated on their
// own (canonical order, distances recomputed from the rectangles).
func computeReferences(res *result, cfg config, d *dataset, refK int, withinLimit int) error {
	ref, err := distjoin.KDistanceJoin(d.L, d.R, refK, &distjoin.Options{QueueMemBytes: refQueueMem})
	if err != nil {
		return fmt.Errorf("reference join: %w", err)
	}
	res.check(len(ref) == refK && validRanking(ref), "reference top-%d is not a valid ranking", refK)
	d.ref = ref
	d.within, err = withinJoin(d.L, d.R, withinLimit)
	if err != nil {
		return fmt.Errorf("reference within join: %w", err)
	}
	ok := len(d.within) > 0
	for _, p := range d.within {
		ok = ok && p.Dist <= withinMaxDist && p.Dist == p.LeftRect.MinDist(p.RightRect)
	}
	res.check(ok, "reference within join is invalid")
	if cfg.corruptRef {
		d.ref[0].Dist = math.Nextafter(d.ref[0].Dist, math.Inf(1))
	}
	return nil
}

// validRanking reports whether ps is in canonical order (distance,
// then left ID, then right ID) and every distance matches its
// rectangles.
func validRanking(ps []distjoin.Pair) bool {
	for i, p := range ps {
		if p.Dist != p.LeftRect.MinDist(p.RightRect) {
			return false
		}
		if i == 0 {
			continue
		}
		q := ps[i-1]
		if q.Dist > p.Dist || (q.Dist == p.Dist && (q.LeftID > p.LeftID || (q.LeftID == p.LeftID && q.RightID >= p.RightID))) {
			return false
		}
	}
	return true
}

// tieNote records how many reference pairs have distance 0 against
// the number of pairs the default in-memory heap holds.
func tieNote(res *result, ref []distjoin.Pair) (zeros, heap int) {
	for _, p := range ref {
		if p.Dist == 0 {
			zeros++
		}
	}
	heap = defaultQueueMem / hybridq.RecordSize
	res.notef("ties: %d of the %d reference pairs have distance 0; the default heap holds %d pairs (%d B / %d B)",
		zeros, len(ref), heap, defaultQueueMem, hybridq.RecordSize)
	return zeros, heap
}

func withinJoin(L, R *distjoin.Index, limit int) ([]distjoin.Pair, error) {
	out := make([]distjoin.Pair, 0, limit)
	err := distjoin.WithinJoin(L, R, withinMaxDist, nil, func(p distjoin.Pair) bool {
		out = append(out, p)
		return len(out) < limit
	})
	return out, err
}

func samePairs(got, want []distjoin.Pair) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d pairs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("pair %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// sample is one timed operation.
type sample struct {
	k     int     // top-k size; 0 for an incremental join
	dur   float64 // seconds
	first float64 // incremental: seconds to the first page
	alloc float64 // top-k: heap bytes allocated (single client only)
}

// executor runs one operation of the cycle and checks its answer.
type executor func(k int, measureAlloc bool) (sample, error)

// facadeExec runs operations through the public facade.
func (s facadeSpec) facadeExec(d *dataset) executor {
	return func(k int, measureAlloc bool) (sample, error) {
		if k == 0 {
			return s.facadeIncremental(d)
		}
		var m0, m1 runtime.MemStats
		if measureAlloc {
			runtime.ReadMemStats(&m0)
		}
		t := time.Now()
		got, err := distjoin.KDistanceJoin(d.L, d.R, k, nil)
		sm := sample{k: k, dur: time.Since(t).Seconds()}
		if measureAlloc {
			runtime.ReadMemStats(&m1)
			sm.alloc = float64(m1.TotalAlloc - m0.TotalAlloc)
		}
		if err != nil {
			return sm, err
		}
		return sm, samePairs(got, d.ref[:k])
	}
}

func (s facadeSpec) facadeIncremental(d *dataset) (sample, error) {
	t := time.Now()
	it, err := distjoin.IncrementalJoin(d.L, d.R, nil)
	if err != nil {
		return sample{}, err
	}
	defer it.Close()
	sm := sample{}
	for i := 0; i < s.incDepth; i++ {
		p, ok := it.Next()
		if !ok {
			return sm, fmt.Errorf("incremental join ended after %d pairs: %v", i, it.Err())
		}
		if p != d.ref[i] {
			return sm, fmt.Errorf("incremental pair %d is %+v, want %+v", i, p, d.ref[i])
		}
		if i+1 == s.incPage {
			sm.first = time.Since(t).Seconds()
		}
	}
	sm.dur = time.Since(t).Seconds()
	return sm, nil
}

// singleClient runs the cycle in a closed loop of whole cycles, at
// least one, until dur has passed. Stopping only at the end of a
// cycle keeps the mix of operations behind every median the same
// however fast each operation is. It also returns each cycle's peak
// RSS in MB. Each operation starts from a collected heap with its
// garbage returned to the OS, so the peak does not depend on where the
// previous operation left the GC cycle.
func singleClient(ctx context.Context, res *result, cycle []int, dur time.Duration, exec executor) ([]sample, []float64, error) {
	var (
		out   []sample
		peaks []float64
		rss   *rssSampler
	)
	start := time.Now()
	for i := 0; ; i++ {
		if err := ctx.Err(); err != nil {
			if rss != nil {
				rss.finish()
			}
			return nil, nil, err
		}
		debug.FreeOSMemory()
		if i%len(cycle) == 0 {
			var err error
			if rss, err = sampleRSS(0); err != nil {
				return nil, nil, err
			}
		}
		k := cycle[i%len(cycle)]
		sm, err := exec(k, true)
		res.check(err == nil, "op k=%d: %v", k, err)
		out = append(out, sm)
		if (i+1)%len(cycle) != 0 {
			continue
		}
		peak, err := rss.finish()
		rss = nil
		if err != nil {
			return nil, nil, err
		}
		peaks = append(peaks, peak)
		if time.Since(start) >= dur {
			return out, peaks, nil
		}
	}
}

// multiClient runs top-k queries from n goroutines in a closed loop for
// at least dur, each goroutine completing at least one; goroutine g
// starts its cycle at g mod len(ks), so the queries a short phase
// completes are the same on every run. It returns completed queries
// per second.
func multiClient(ctx context.Context, res *result, n int, ks []int, dur time.Duration, exec executor) (float64, int, error) {
	type outcome struct {
		k   int
		err error
	}
	outs := make([][]outcome, n)
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; ; i++ {
				k := ks[i%len(ks)]
				_, err := exec(k, false)
				outs[g] = append(outs[g], outcome{k, err})
				if ctx.Err() != nil || time.Since(start) >= dur {
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	done := 0
	for _, gs := range outs {
		for _, o := range gs {
			res.check(o.err == nil, "concurrent k=%d: %v", o.k, o.err)
			done++
		}
	}
	return float64(done) / elapsed, done, nil
}

// withinLoop times facade within joins for at least dur and 50 calls,
// checking each. It starts from a collected heap, so garbage left by
// the previous phase does not tax these short calls.
func withinLoop(ctx context.Context, res *result, d *dataset, limit int, dur time.Duration) ([]float64, error) {
	runtime.GC()
	var lat []float64
	start := time.Now()
	for len(lat) < 50 || time.Since(start) < dur {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t := time.Now()
		got, err := withinJoin(d.L, d.R, limit)
		lat = append(lat, time.Since(t).Seconds())
		if err == nil {
			err = samePairs(got, d.within)
		}
		res.check(err == nil, "within join: %v", err)
	}
	return lat, nil
}

// runFacade runs a facade workload: set-up, references, then the
// untraced measurement or the traced per-layer run.
func runFacade(ctx context.Context, cfg config, spec facadeSpec) (*result, error) {
	res := newResult()
	d, total, genS, buildS, err := setup(spec.gen, setupRepeats)
	if err != nil {
		return nil, err
	}
	res.notef("inputs: %d x %d objects; setup %.3fs (median of %d)", len(d.left), len(d.right), median(total), len(total))
	if err := computeReferences(res, cfg, d, spec.refK(), spec.withinLimit); err != nil {
		return nil, err
	}
	zeros, heap := tieNote(res, d.ref)
	if cfg.trace {
		return runFacadeTraced(ctx, cfg, spec, d, res, genS, buildS, zeros, heap)
	}

	// The peak RSS is the single client's, per cycle. The two-client
	// phase is left out because its peak swings by half with how the
	// two queries' GC cycles interleave.
	exec := spec.facadeExec(d)
	single, peaks, err := singleClient(ctx, res, spec.cycle(), cfg.seconds*70/100, exec)
	if err != nil {
		return nil, err
	}
	within, err := withinLoop(ctx, res, d, spec.withinLimit, cfg.seconds*5/100)
	if err != nil {
		return nil, err
	}
	rate, done, err := multiClient(ctx, res, clients, spec.ks, cfg.seconds*25/100, exec)
	if err != nil {
		return nil, err
	}

	var topk, allocs, firsts, streams []float64
	pairs := 0.0
	for _, s := range single {
		switch {
		case s.k > 0:
			topk = append(topk, s.dur)
			allocs = append(allocs, s.alloc/1e6)
			pairs += float64(s.k)
			if s.k == spec.ks[0] && spec.incDepth == 0 {
				firsts = append(firsts, s.dur)
			}
		default:
			firsts = append(firsts, s.first)
			streams = append(streams, float64(spec.incDepth)/s.dur)
		}
	}
	for _, k := range spec.ks {
		var durs, mbs []float64
		for _, s := range single {
			if s.k == k {
				durs, mbs = append(durs, s.dur), append(mbs, s.alloc/1e6)
			}
		}
		res.notef("k=%d: median %.4fs, %.1f MB allocated, %d queries", k, median(durs), median(mbs), len(durs))
	}
	if spec.incDepth == 0 {
		// No incremental join here: the stream is the top-k client's
		// pairs per second, and the first page is the top-ks[0] answer.
		streams = []float64{pairs / sum(topk)}
	}
	res.set("setup_s", "s", median(total), len(total))
	res.setLatency("query_p50_s", "query_tail_s", topk)
	res.set("queries_per_s", "1/s", float64(len(topk))/sum(topk), len(topk))
	res.set("max_rate_rps", "1/s", rate, done)
	res.notef("max_rate_rps: %d concurrent closed-loop clients", clients)
	res.set("first_page_s", "s", median(firsts), len(firsts))
	res.set("stream_pairs_per_s", "1/s", median(streams), len(streams))
	res.set("within_p50_s", "s", median(within), len(within))
	res.set("alloc_mb_per_query", "MB", median(allocs), len(allocs))
	res.set("peak_rss_mb", "MB", median(peaks), len(peaks))
	res.setSuccess()
	return res, nil
}
