package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"distjoin"
	"distjoin/internal/geom"
	"distjoin/internal/hybridq"
	"distjoin/internal/pqueue"
	"distjoin/internal/rtree"
	"distjoin/internal/storage"
	"distjoin/internal/sweep"
)

// Layer replay probes: each feeds one layer's public functions with
// the workload's own data, times them, and checks their output. A
// failed check counts as a failed operation.

// probeMin is the least time each timing probe repeats its pass for.
const probeMin = 200 * time.Millisecond

// treeNode is one decoded page of a tree.
type treeNode struct {
	id   storage.PageID
	node rtree.Node
}

func collectNodes(t *rtree.Tree) ([]treeNode, error) {
	var out []treeNode
	err := t.Walk(func(id storage.PageID, n *rtree.Node) error {
		out = append(out, treeNode{id: id, node: rtree.Node{Level: n.Level, Entries: append([]rtree.NodeEntry(nil), n.Entries...)}})
		return nil
	})
	return out, err
}

// repeatFor runs pass until it has run at least once and min has
// passed, returning the number of passes and the elapsed seconds.
func repeatFor(ctx context.Context, min time.Duration, pass func()) (int, float64, error) {
	start := time.Now()
	n := 0
	for n == 0 || time.Since(start) < min {
		if err := ctx.Err(); err != nil {
			return 0, 0, err
		}
		pass()
		n++
	}
	return n, time.Since(start).Seconds(), nil
}

func runProbes(ctx context.Context, res *result, seed int64, lt, rt *rtree.Tree, ref []distjoin.Pair, rho float64) error {
	ln, err := collectNodes(lt)
	if err != nil {
		return err
	}
	rn, err := collectNodes(rt)
	if err != nil {
		return err
	}
	cutoff := ref[len(ref)-1].Dist
	steps := []func() error{
		func() error { return probeDecode(ctx, res, []*rtree.Tree{lt, rt}, [][]treeNode{ln, rn}) },
		func() error { return probeSweep(ctx, res, ln, rn, lt.Bounds(), rt.Bounds(), cutoff) },
		func() error { return probeBatch(ctx, res, leaves(ln), leaves(rn)) },
		func() error { return probeDistanceQueue(ctx, res, seed, ref) },
		func() error { return probeHybridQueue(ctx, res, seed, ref, rho) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// probeDecode replays ReadNodeSoA over every page of both trees and
// checks each decoded node against the row-layout decode.
func probeDecode(ctx context.Context, res *result, trees []*rtree.Tree, nodes [][]treeNode) error {
	var soa rtree.NodeSoA
	ok := true
	count := 0
	passes, secs, err := repeatFor(ctx, probeMin, func() {
		for ti, t := range trees {
			for _, n := range nodes[ti] {
				if err := t.ReadNodeSoA(n.id, &soa, nil); err != nil || !sameNode(&soa, &n.node) {
					ok = false
				}
				count++
			}
		}
	})
	if err != nil {
		return err
	}
	res.check(ok, "ReadNodeSoA disagrees with ReadNode")
	res.set("rtree.decode_us_per_node", "us", secs*1e6/float64(count), passes)
	return nil
}

func sameNode(s *rtree.NodeSoA, n *rtree.Node) bool {
	if s.Level != n.Level || s.Len() != len(n.Entries) {
		return false
	}
	for i, e := range n.Entries {
		if s.Entry(i) != e {
			return false
		}
	}
	return true
}

func toSoA(n *rtree.Node, dst *rtree.NodeSoA) {
	dst.Reset(len(n.Entries))
	dst.Level = n.Level
	for i, e := range n.Entries {
		dst.MinX[i], dst.MinY[i], dst.MaxX[i], dst.MaxY[i] = e.Rect.MinX, e.Rect.MinY, e.Rect.MaxX, e.Rect.MaxY
		dst.Refs[i] = e.Ref
	}
}

// probeSweep sorts every node of each tree with the plan the optimized
// sweep picks against the other tree's bounds at the reference cutoff,
// and checks the sweep order.
func probeSweep(ctx context.Context, res *result, ln, rn []treeNode, lb, rb geom.Rect, cutoff float64) error {
	type job struct {
		src  rtree.NodeSoA
		plan sweep.Plan
	}
	var jobs []job
	add := func(nodes []treeNode, other geom.Rect) {
		for i := range nodes {
			var j job
			toSoA(&nodes[i].node, &j.src)
			j.plan = sweep.Choose(nodes[i].node.MBR(), other, cutoff)
			jobs = append(jobs, j)
		}
	}
	add(ln, rb)
	add(rn, lb)
	var (
		work   rtree.NodeSoA
		sorter sweep.SoASorter
		ns     int64
		sorts  int
		ok     = true
	)
	passes, _, err := repeatFor(ctx, probeMin, func() {
		for i := range jobs {
			j := &jobs[i]
			work.Reset(j.src.Len())
			work.Level = j.src.Level
			copy(work.MinX, j.src.MinX)
			copy(work.MinY, j.src.MinY)
			copy(work.MaxX, j.src.MaxX)
			copy(work.MaxY, j.src.MaxY)
			copy(work.Refs, j.src.Refs)
			t := time.Now()
			sorter.Sort(&work, j.plan)
			ns += int64(time.Since(t))
			sorts++
			for e := 1; e < work.Len(); e++ {
				if sweep.Key(work.Rect(e-1), j.plan.Axis, j.plan.Dir) > sweep.Key(work.Rect(e), j.plan.Axis, j.plan.Dir) {
					ok = false
				}
			}
		}
	})
	if err != nil {
		return err
	}
	res.check(ok, "SoASorter.Sort left a node out of sweep order")
	res.set("sweep.sort_us_per_node", "us", float64(ns)/1e3/float64(sorts), passes)
	return nil
}

func leaves(nodes []treeNode) []rtree.NodeSoA {
	var out []rtree.NodeSoA
	for i := range nodes {
		if nodes[i].node.IsLeaf() {
			var s rtree.NodeSoA
			toSoA(&nodes[i].node, &s)
			out = append(out, s)
		}
	}
	return out
}

// probeBatch runs MinDistSqBatch from every entry of each left leaf to
// the entries of a right leaf (left leaf i meets right leaf i mod n),
// and checks each batch against Rect.MinDistSq.
func probeBatch(ctx context.Context, res *result, ll, rl []rtree.NodeSoA) error {
	if len(ll) == 0 || len(rl) == 0 {
		return fmt.Errorf("batch probe: a tree has no leaves")
	}
	dst := make([]float64, rtree.PageCapacity(storage.DefaultPageSize))
	var calcs int64
	passes, secs, err := repeatFor(ctx, probeMin, func() {
		for i := range ll {
			l, r := &ll[i], &rl[i%len(rl)]
			d := dst[:r.Len()]
			for e := 0; e < l.Len(); e++ {
				geom.MinDistSqBatch(d, l.Rect(e), r.MinX, r.MinY, r.MaxX, r.MaxY)
			}
			calcs += int64(l.Len() * r.Len())
		}
	})
	if err != nil {
		return err
	}
	ok := true
	for i := range ll {
		l, r := &ll[i], &rl[i%len(rl)]
		d := dst[:r.Len()]
		for e := 0; e < l.Len(); e++ {
			q := l.Rect(e)
			geom.MinDistSqBatch(d, q, r.MinX, r.MinY, r.MaxX, r.MaxY)
			for j := range d {
				ok = ok && d[j] == q.MinDistSq(r.Rect(j))
			}
		}
	}
	res.check(ok, "MinDistSqBatch disagrees with Rect.MinDistSq")
	res.set("geom.batch_ns_per_calc", "ns", secs*1e9/float64(calcs), passes)
	return nil
}

// probeDistanceQueue inserts the reference distances, shuffled with
// the seed, into a distance queue of a tenth of their number, and
// checks the cutoff it keeps.
func probeDistanceQueue(ctx context.Context, res *result, seed int64, ref []distjoin.Pair) error {
	dists := make([]float64, len(ref))
	for i, p := range ref {
		dists[i] = p.Dist
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(dists), func(i, j int) { dists[i], dists[j] = dists[j], dists[i] })
	k := max(len(ref)/10, 1)
	ok := true
	var inserts int64
	passes, secs, err := repeatFor(ctx, probeMin, func() {
		q := pqueue.NewDistanceQueue(k)
		for _, d := range dists {
			q.Insert(d)
		}
		inserts += int64(len(dists))
		ok = ok && q.Cutoff() == ref[k-1].Dist
	})
	if err != nil {
		return err
	}
	res.check(ok, "distance queue cutoff is not the k-th reference distance")
	res.set("pqueue.insert_ns", "ns", secs*1e9/float64(inserts), passes)
	return nil
}

// probeHybridQueue pushes the reference pairs, shuffled with the seed,
// through a hybrid queue with the default budget and the workload's
// density model, pops them all, and checks they come out in Pair.Less
// order equal to the reference.
func probeHybridQueue(ctx context.Context, res *result, seed int64, ref []distjoin.Pair, rho float64) error {
	pairs := make([]hybridq.Pair, len(ref))
	for i, p := range ref {
		pairs[i] = hybridq.Pair{
			Dist: p.Dist, LeftObj: true, RightObj: true,
			Left: uint64(p.LeftID), Right: uint64(p.RightID),
			LeftRect: p.LeftRect, RightRect: p.RightRect,
		}
	}
	want := append([]hybridq.Pair(nil), pairs...)
	rand.New(rand.NewSource(seed)).Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	ok := true
	var times []float64
	memPeak := 0
	passes, _, err := repeatFor(ctx, probeMin, func() {
		t := time.Now()
		q := hybridq.New(hybridq.Config{MemBytes: defaultQueueMem, Rho: rho})
		for _, p := range pairs {
			q.Push(p)
			memPeak = max(memPeak, q.MemLen())
		}
		n := 0
		for {
			p, more := q.Pop()
			if !more {
				break
			}
			if n >= len(want) || p != want[n] || (n > 0 && p.Less(want[n-1])) {
				ok = false
			}
			n++
		}
		times = append(times, time.Since(t).Seconds())
		ok = ok && n == len(want) && q.Err() == nil
	})
	if err != nil {
		return err
	}
	res.check(ok, "hybrid queue replay popped out of order or lost pairs")
	res.set("hybridq.replay_s", "s", median(times), passes)
	res.set("hybridq.replay_mem_peak_bytes", "B", float64(memPeak*hybridq.RecordSize), passes)
	return nil
}
