package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"distjoin"
	"distjoin/internal/estimate"
	"distjoin/internal/hybridq"
	"distjoin/internal/join"
	"distjoin/internal/metrics"
	"distjoin/internal/rtree"
	"distjoin/internal/storage"
	"distjoin/internal/trace"
)

// traceCapacity bounds one operation's trace events. A tiger-topk
// query emits well under this; drops are reported if it ever does not.
const traceCapacity = 1 << 18

// rig runs operations through the engine's internal entry points with
// every layer instrumented from outside: trees packed onto timed
// stores, a timed queue store, a timing estimator wrapper, a Stats
// collector and a Tracer. Options are otherwise the facade's defaults.
type rig struct {
	lt, rt *rtree.Tree
	ls, rs *timedStore
	model  estimate.Model
	tr     *trace.Tracer
	epoch  time.Time
	acc    layerAcc
}

func newRig(d *dataset) (*rig, error) {
	lt, ls, err := packTree(d.left)
	if err != nil {
		return nil, err
	}
	rt, rs, err := packTree(d.right)
	if err != nil {
		return nil, err
	}
	model, err := estimate.NewModel(lt.Bounds(), max(lt.Size(), 1), rt.Bounds(), max(rt.Size(), 1))
	if err != nil {
		return nil, err
	}
	r := &rig{lt: lt, rt: rt, ls: ls, rs: rs, model: model, tr: trace.New(traceCapacity)}
	r.epoch = time.Now()
	r.acc.stageS = map[string]float64{}
	return r, nil
}

// packTree bulk-loads items the way distjoin.NewIndex does, onto a
// timed store.
func packTree(items []rtree.Item) (*rtree.Tree, *timedStore, error) {
	b, err := rtree.NewBuilderForPageSize(storage.DefaultPageSize)
	if err != nil {
		return nil, nil, err
	}
	b.BulkLoad(append([]rtree.Item(nil), items...))
	s := newTimedStore()
	t, err := b.Pack(s, defaultQueueMem)
	if err != nil {
		return nil, nil, fmt.Errorf("pack tree: %w", err)
	}
	return t, s, nil
}

// layerAcc sums per-layer observations over a rig's operations.
type layerAcc struct {
	ops                                  int
	st                                   metrics.Collector
	peakPairs, memPeakPairs              int64
	spills, reloads, expansions, updates int
	stageS                               map[string]float64
	treeReads                            int64
	treeReadS, queueIOS                  float64
	estCalls                             int64
	estS                                 float64
	dropped                              uint64
}

// measure runs one instrumented operation and checks its answer
// against want.
func (r *rig) measure(want []distjoin.Pair, run func(join.Options) ([]distjoin.Pair, error)) (float64, error) {
	var st metrics.Collector
	qs := newTimedStore()
	est := &timedEstimator{inner: r.model}
	jo := join.Options{Metrics: &st, Trace: r.tr, Estimator: est, QueueStore: qs}
	r.tr.Reset()
	reads0, readNS0 := r.ls.reads.Load()+r.rs.reads.Load(), r.ls.readNS.Load()+r.rs.readNS.Load()
	t := time.Now()
	got, err := run(jo)
	dur := time.Since(t).Seconds()
	endUS := time.Since(r.epoch).Microseconds()
	if err != nil {
		return dur, err
	}

	a := &r.acc
	a.ops++
	a.st.Add(&st)
	a.peakPairs = max(a.peakPairs, st.MainQueuePeak)
	a.treeReads += r.ls.reads.Load() + r.rs.reads.Load() - reads0
	a.treeReadS += float64(r.ls.readNS.Load()+r.rs.readNS.Load()-readNS0) / 1e9
	qr, qw := qs.ioSeconds()
	a.queueIOS += qr + qw
	a.estCalls += est.calls
	a.estS += float64(est.ns) / 1e9
	a.dropped += r.tr.Dropped()
	a.addEvents(r.tr.Events(), endUS, st.MainQueuePeak)
	return dur, samePairs(got, want)
}

// topK is an AM-KDJ query.
func (r *rig) topK(k int) func(join.Options) ([]distjoin.Pair, error) {
	return func(jo join.Options) ([]distjoin.Pair, error) {
		rs, err := join.AMKDJ(r.lt, r.rt, k, jo)
		return toPairs(rs), err
	}
}

// incremental is an AM-IDJ join drained to depth.
func (r *rig) incremental(depth int) func(join.Options) ([]distjoin.Pair, error) {
	return func(jo join.Options) ([]distjoin.Pair, error) {
		it, err := join.AMIDJ(r.lt, r.rt, jo)
		if err != nil {
			return nil, err
		}
		defer it.Close()
		var out []join.Result
		for len(out) < depth {
			p, ok := it.Next()
			if !ok {
				break
			}
			out = append(out, p)
		}
		return toPairs(out), it.Err()
	}
}

// within is a within join stopped at limit pairs.
func (r *rig) within(limit int) func(join.Options) ([]distjoin.Pair, error) {
	return func(jo join.Options) ([]distjoin.Pair, error) {
		var out []join.Result
		err := join.WithinJoin(r.lt, r.rt, withinMaxDist, jo, func(p join.Result) bool {
			out = append(out, p)
			return len(out) < limit
		})
		return toPairs(out), err
	}
}

func toPairs(rs []join.Result) []distjoin.Pair {
	out := make([]distjoin.Pair, len(rs))
	for i, r := range rs {
		out[i] = distjoin.Pair{LeftID: r.LeftObj, RightID: r.RightObj, LeftRect: r.LeftRect, RightRect: r.RightRect, Dist: r.Dist}
	}
	return out
}

// addEvents folds one operation's trace into the sums: event counts,
// the hybrid queue's peak in-memory length at spills and reloads, and
// the time spent in each stage (a stage runs from its stage_start or
// compensation event to the next stage boundary or the operation's
// end).
func (a *layerAcc) addEvents(evs []trace.Event, endUS, queuePeak int64) {
	open, openAt := "", int64(0)
	closeStage := func(at int64) {
		if open == "" {
			return
		}
		label := open
		if strings.HasPrefix(label, "stage") {
			label = "stage"
		}
		a.stageS[label] += float64(at-openAt) / 1e6
		open = ""
	}
	diskActivity := false
	for _, ev := range evs {
		switch ev.Kind {
		case trace.KindExpansion:
			a.expansions++
		case trace.KindEDmaxUpdate:
			a.updates++
		case trace.KindQueueSpill, trace.KindQueueReload:
			if ev.Kind == trace.KindQueueSpill {
				a.spills++
			} else {
				a.reloads++
			}
			diskActivity = true
			a.memPeakPairs = max(a.memPeakPairs, int64(ev.MemLen))
		case trace.KindStageStart, trace.KindCompensation:
			closeStage(ev.At)
			open, openAt = ev.Stage, ev.At
		case trace.KindStageEnd:
			closeStage(ev.At)
		}
	}
	closeStage(endUS)
	if !diskActivity {
		// Nothing left memory, so the whole queue peak was in memory.
		a.memPeakPairs = max(a.memPeakPairs, queuePeak)
	}
}

// emit reports the per-operation means of the sums.
func (a *layerAcc) emit(res *result) {
	n := float64(max(a.ops, 1))
	per := func(name, unit string, v float64) { res.set(name, unit, v/n, a.ops) }
	st := &a.st
	per("rtree.nodes_logical", "count", float64(st.NodeAccessesLogical))
	per("storage.buffer_hits", "count", float64(st.BufferHits))
	per("storage.buffer_misses", "count", float64(st.BufferMisses))
	per("storage.page_reads", "count", float64(a.treeReads))
	per("storage.read_s", "s", a.treeReadS)
	per("storage.queue_io_s", "s", a.queueIOS)
	per("sweep.axis_calcs", "count", float64(st.AxisDistCalcs))
	per("geom.real_calcs", "count", float64(st.RealDistCalcs))
	per("pqueue.inserts", "count", float64(st.DistQueueInserts))
	per("hybridq.inserts", "count", float64(st.MainQueueInserts))
	res.set("hybridq.peak_pairs", "count", float64(a.peakPairs), a.ops)
	per("hybridq.page_writes", "count", float64(st.QueuePageWrites))
	per("hybridq.page_reads", "count", float64(st.QueuePageReads))
	per("hybridq.spills", "count", float64(a.spills))
	per("hybridq.reloads", "count", float64(a.reloads))
	res.set("hybridq.mem_peak_bytes", "B", float64(a.memPeakPairs*hybridq.RecordSize), a.ops)
	res.notef("hybridq.mem_peak_bytes against a budget of %d B", defaultQueueMem)
	per("estimate.calls", "count", float64(a.estCalls))
	per("estimate.s", "s", a.estS)
	for _, s := range []string{"aggressive", "compensation", "stage"} {
		per("join.stage_s."+s, "s", a.stageS[s])
	}
	per("join.comp_stages", "count", float64(st.CompensationStages))
	per("join.edmax_updates", "count", float64(a.updates))
	per("join.expansions", "count", float64(a.expansions))
	per("join.modeled_io_s", "s", st.ModeledIOTime.Seconds())
	if a.dropped > 0 {
		res.notef("trace ring dropped %d events: event counts are lower bounds", a.dropped)
	}
}

// profiled runs fn under the CPU profiler and records cpu_share.*.
func profiled(res *result, fn func() error) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("start profile: %w", err)
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	return setCPUShares(res, buf.Bytes())
}

func setCPUShares(res *result, profile []byte) error {
	shares, caused, n, err := cpuShares(profile)
	if err != nil {
		return err
	}
	for _, l := range cpuLayers {
		res.set("cpu_share."+l, "ratio", shares[l], n)
	}
	res.notef("cpu profile: %d samples, self shares by package; other %.3f", n, shares["other"])
	res.notef("runtime and other charged to the calling layer: %s", formatShares(caused))
	return nil
}

// runFacadeTraced is the traced run of a facade workload: a profiled
// untraced pass, an instrumented pass, then the layer replay probes.
func runFacadeTraced(ctx context.Context, cfg config, spec facadeSpec, d *dataset, res *result, genS, buildS []float64, zeros, heap int) (*result, error) {
	res.set("datagen.gen_s", "s", median(genS), len(genS))
	res.set("rtree.build_s", "s", median(buildS), len(buildS))
	res.set("ties.zero_pairs", "count", float64(zeros), 1)
	res.set("ties.heap_pairs", "count", float64(heap), 1)

	var plain []sample
	err := profiled(res, func() error {
		var err error
		plain, _, err = singleClient(ctx, res, spec.tracedCycle(), cfg.seconds/2, spec.facadeExec(d))
		return err
	})
	if err != nil {
		return nil, err
	}

	r, err := newRig(d)
	if err != nil {
		return nil, err
	}
	traced, _, err := singleClient(ctx, res, spec.tracedCycle(), cfg.seconds/2, func(k int, _ bool) (sample, error) {
		if k == 0 {
			dur, err := r.measure(d.ref[:spec.incDepth], r.incremental(spec.incDepth))
			return sample{dur: dur}, err
		}
		dur, err := r.measure(d.ref[:k], r.topK(k))
		return sample{k: k, dur: dur}, err
	})
	if err != nil {
		return nil, err
	}
	r.acc.emit(res)
	res.set("trace.overhead_frac", "ratio", median(topkDurations(traced))/median(topkDurations(plain))-1, len(traced))
	res.set("loadgen.lag_tail_s", "s", 0, 0)
	setServingNA(res)

	if err := runProbes(ctx, res, cfg.seed, r.lt, r.rt, d.ref, r.model.Rho()); err != nil {
		return nil, err
	}
	return res, nil
}

// setServingNA reports the serving metrics of a workload without a
// server as 0.
func setServingNA(res *result) {
	for _, n := range []string{"admission_wait_p50_s", "admission_wait_tail_s", "engine_s", "overhead_s"} {
		res.set("serving."+n, "s", 0, 0)
	}
	res.set("serving.response_bytes", "B", 0, 0)
}

// formatShares lists shares above 0.001, largest first.
func formatShares(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k, v := range m {
		if v > 0.001 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return m[keys[i]] > m[keys[j]] })
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s %.3f", k, m[k])
	}
	return strings.Join(parts, ", ")
}

func topkDurations(ss []sample) []float64 {
	var out []float64
	for _, s := range ss {
		if s.k > 0 {
			out = append(out, s.dur)
		}
	}
	return out
}
