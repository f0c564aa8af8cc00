package hybridq

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"distjoin/internal/metrics"
	"distjoin/internal/pqueue"
	"distjoin/internal/storage"
	"distjoin/internal/trace"
)

// Queue is the hybrid memory/disk main queue. It behaves as a strict
// priority queue over Pairs (Pop always returns the global minimum by
// Pair.Less) while bounding memory to the configured budget.
//
// Storage errors are latched: after the first error every operation
// becomes a no-op and Err reports the cause. The join algorithms check
// Err once at the end of a run.
type Queue struct {
	heap     *pqueue.Heap[Pair]
	capacity int        // max heap elements (n of §4.4)
	memBound key        // exclusive upper bound of the in-memory range
	rho      float64    // density factor for model boundaries, 0 disables
	segs     []*segment // sorted by lo, disjoint, all at or above memBound
	disk     int        // pairs in segs
	store    storage.Store
	free     []storage.PageID
	perPage  int
	mc       *metrics.Collector
	ioCost   metrics.IOCostModel
	tr       *trace.Tracer
	fault    func(op FaultOp) error
	err      error
	// mu serializes the public operations when the queue was built with
	// Config.Concurrent. The parallel join engine touches the main queue
	// only from its coordinating goroutine between worker barriers, so
	// the lock is defense-in-depth rather than a hot-path cost; it makes
	// the queue safe under -race for any future caller that does share
	// it across goroutines. Nil when the queue is single-goroutine.
	mu *sync.Mutex
}

// FaultOp identifies one injectable disk-path operation of the queue,
// used by failure-injection tests (join fault tests, internal/simtest)
// to enumerate and fail every spill/reload point deterministically.
type FaultOp int

const (
	// FaultSpill fires when a heap split moves pairs to a disk segment.
	FaultSpill FaultOp = iota
	// FaultReload fires when a drained heap swaps a disk segment back
	// in (swapIn with at least one segment available).
	FaultReload
)

// String names the operation for schedule printing ("spill"/"reload").
func (op FaultOp) String() string {
	switch op {
	case FaultSpill:
		return "spill"
	case FaultReload:
		return "reload"
	default:
		return "unknown"
	}
}

// segment is one on-disk unsorted pile covering the key range
// [lo, hi).
type segment struct {
	lo, hi   key
	pages    []storage.PageID
	buf      []byte // partial trailing page
	bufCount int
	count    int
}

// Config parameterizes a Queue.
type Config struct {
	// MemBytes is the memory budget for the in-memory heap (§5's
	// "size of in-memory portion of a main queue"). Minimum one pair.
	MemBytes int
	// Rho is the density factor from estimate.Model.Rho used to place
	// model-based segment boundaries. Zero disables model boundaries:
	// the queue then relies purely on overflow splits.
	Rho float64
	// Store holds spilled segments; nil allocates a private MemStore
	// with the default page size.
	Store storage.Store
	// Metrics receives queue page I/O accounting (may be nil).
	Metrics *metrics.Collector
	// IOCost charges simulated time per spilled page; zero value
	// charges nothing.
	IOCost metrics.IOCostModel
	// Concurrent guards the queue with an internal mutex so its public
	// operations are safe to call from multiple goroutines. The serial
	// join algorithms leave it unset and pay nothing.
	Concurrent bool
	// Trace, when non-nil, receives queue_spill / queue_reload events
	// with the memory-vs-disk segment depth at each heap split and
	// segment swap-in. Nil costs nothing.
	Trace *trace.Tracer
	// FaultHook, when non-nil, is invoked at the start of every
	// spill (heap split moving pairs to disk) and reload (segment
	// swap-in). Returning a non-nil error aborts the operation and
	// latches the queue into its failed state, exactly as a storage
	// error would. This is the failure-injection surface used by the
	// deterministic simulation harness: unlike store-level faults it
	// fires even when segment pages are still sitting in write
	// buffers, so every logical disk transition is a schedulable
	// fault point. Nil costs nothing.
	FaultHook func(op FaultOp) error
}

// New returns an empty hybrid queue.
func New(cfg Config) *Queue {
	st := cfg.Store
	if st == nil {
		st = storage.NewMemStore(storage.DefaultPageSize)
	}
	capacity := cfg.MemBytes / RecordSize
	if capacity < 1 {
		capacity = 1
	}
	// §4.4: the boundary between the in-memory heap and the first
	// disk segment is sqrt(n*rho). Distant pairs spill immediately
	// instead of churning through the heap; an underestimated model is
	// corrected by overflow splits, an overestimated one by swap-ins.
	memBound := unbounded
	if b := math.Sqrt(float64(capacity) * cfg.Rho); b > 0 {
		memBound = key{dist: b}
	}
	q := &Queue{
		heap:     pqueue.NewHeap(func(a, b Pair) bool { return a.key().less(b.key()) }),
		capacity: capacity,
		memBound: memBound,
		rho:      cfg.Rho,
		store:    st,
		perPage:  st.PageSize() / RecordSize,
		mc:       cfg.Metrics,
		ioCost:   cfg.IOCost,
		tr:       cfg.Trace,
		fault:    cfg.FaultHook,
	}
	if cfg.Concurrent {
		q.mu = new(sync.Mutex)
	}
	return q
}

// lock acquires the internal mutex when the queue is concurrent; it
// returns an unlock func (a no-op for single-goroutine queues).
func (q *Queue) lock() func() {
	if q.mu == nil {
		return func() {}
	}
	q.mu.Lock()
	return q.mu.Unlock
}

// Capacity returns the heap capacity in pairs.
func (q *Queue) Capacity() int { return q.capacity }

// Len returns the total number of queued pairs (memory + disk).
func (q *Queue) Len() int {
	defer q.lock()()
	return q.heap.Len() + q.disk
}

// Empty reports whether no pairs are queued.
func (q *Queue) Empty() bool { return q.Len() == 0 }

// MemLen returns the number of pairs currently in the in-memory heap.
func (q *Queue) MemLen() int {
	defer q.lock()()
	return q.heap.Len()
}

// Segments returns the number of on-disk segments.
func (q *Queue) Segments() int {
	defer q.lock()()
	return len(q.segs)
}

// Depth reports the in-memory pair count, the spilled (on-disk) pair
// count, and the number of on-disk segments under a single lock
// acquisition — the shape the live query inspector samples, cheap
// enough to call on the hot path at a bounded rate.
func (q *Queue) Depth() (mem, disk, segments int) {
	defer q.lock()()
	return q.heap.Len(), q.disk, len(q.segs)
}

// Err returns the first storage error encountered, if any.
func (q *Queue) Err() error {
	defer q.lock()()
	return q.err
}

// Push enqueues p.
//
//lint:allow lockheld spill I/O under the queue's own single-owner lock is the §4.4 design; the lock is defense-in-depth, never contended on the hot path
func (q *Queue) Push(p Pair) {
	defer q.lock()()
	if q.err != nil {
		return
	}
	k := p.key()
	if k.less(q.memBound) {
		q.heap.Push(p)
		if q.heap.Len() > q.capacity {
			q.splitHeap()
		}
		return
	}
	q.appendToSegment(q.segmentFor(k), p)
}

// Pop removes and returns the minimum pair. ok is false when the
// queue is empty or a storage error is latched.
//
//lint:allow lockheld reload I/O under the queue's own single-owner lock is the §4.4 design; the lock is defense-in-depth, never contended on the hot path
func (q *Queue) Pop() (p Pair, ok bool) {
	defer q.lock()()
	if q.err != nil {
		return Pair{}, false
	}
	if q.heap.Empty() {
		if !q.swapIn() {
			return Pair{}, false
		}
	}
	return q.heap.Pop(), true
}

// Peek returns the minimum pair without removing it.
//
//lint:allow lockheld reload I/O under the queue's own single-owner lock is the §4.4 design; the lock is defense-in-depth, never contended on the hot path
func (q *Queue) Peek() (p Pair, ok bool) {
	defer q.lock()()
	if q.err != nil {
		return Pair{}, false
	}
	if q.heap.Empty() {
		if !q.swapIn() {
			return Pair{}, false
		}
	}
	return q.heap.Peek(), true
}

// splitHeap handles heap overflow: the longer half of the heap, by
// Pair.Less, moves to a new disk segment and the in-memory bound
// shrinks to the first spilled pair's key. The cut can fall inside a
// run of equal distances; pop order is still exactly Pair.Less because
// no pair in memory sorts after a pair on disk.
func (q *Queue) splitHeap() {
	// Injection point before any state is mutated, so a failed spill
	// leaves the heap intact and the error latched.
	if q.fault != nil {
		if err := q.fault(FaultSpill); err != nil {
			q.err = err
			return
		}
	}
	buf := getPairBuf(q.heap.Len())
	items := append(buf.items, q.heap.Items()...)
	sort.Sort(byPairOrder(items))
	q.heap.Clear()
	n := len(items) / 2
	spilled := len(items) - n
	q.keep(items, n)
	// Every pair is now copied into the heap or encoded into the
	// segment buffer; the slab can recycle.
	buf.items = items
	putPairBuf(buf)
	if q.tr.Enabled() {
		q.tr.Emit(trace.Event{
			Kind:     trace.KindQueueSpill,
			Dist:     q.memBound.dist,
			Count:    int64(spilled),
			MemLen:   q.heap.Len(),
			DiskLen:  q.disk,
			Segments: len(q.segs),
		})
	}
}

// keep puts sorted[:n] in the (empty) heap and moves sorted[n:] to a
// new first segment [sorted[n], memBound), which becomes the memory
// bound. sorted is in Pair.Less order and 0 < n < len(sorted).
func (q *Queue) keep(sorted []Pair, n int) {
	seg := getSegment(sorted[n].key(), q.memBound, q.store.PageSize())
	for _, p := range sorted[n:] {
		q.appendToSegment(seg, p)
	}
	q.segs = slices.Insert(q.segs, 0, seg)
	q.memBound = seg.lo
	for _, p := range sorted[:n] {
		q.heap.Push(p)
	}
}

// segmentFor locates or creates the segment containing k, which is
// at or above memBound.
func (q *Queue) segmentFor(k key) *segment {
	i := sort.Search(len(q.segs), func(i int) bool { return k.less(q.segs[i].hi) })
	if i < len(q.segs) && !k.less(q.segs[i].lo) {
		return q.segs[i]
	}
	// k falls in the gap below segs[i]: create a segment from the model
	// boundaries sqrt(i*n*rho), clipped to the gap and the memory bound.
	lo, hi := q.modelRange(k.dist)
	if lo.less(q.memBound) {
		lo = q.memBound
	}
	if i > 0 && lo.less(q.segs[i-1].hi) {
		lo = q.segs[i-1].hi
	}
	if i < len(q.segs) && q.segs[i].lo.less(hi) {
		hi = q.segs[i].lo
	}
	seg := getSegment(lo, hi, q.store.PageSize())
	q.segs = slices.Insert(q.segs, i, seg)
	return seg
}

// maxModelSegments caps how many model-boundary segments may exist.
// Each segment carries one page of write buffer, so unbounded segment
// creation would silently defeat the memory budget; distances beyond
// the last boundary share one open-ended segment.
const maxModelSegments = 64

// modelRange returns the §4.4 model boundaries surrounding dist:
// [sqrt(i*n*rho), sqrt((i+1)*n*rho)) for the i containing dist. With
// no usable model the range is unbounded; beyond the segment cap the
// last range is unbounded above.
func (q *Queue) modelRange(dist float64) (lo, hi key) {
	unit := float64(q.capacity) * q.rho
	if unit <= 0 || math.IsInf(dist, 1) {
		return key{}, unbounded
	}
	i := math.Floor(dist * dist / unit)
	if i >= maxModelSegments {
		return key{dist: math.Sqrt(maxModelSegments * unit)}, unbounded
	}
	l := math.Sqrt(i * unit)
	h := math.Sqrt((i + 1) * unit)
	// Guard against floating-point edge effects at boundaries.
	if dist < l {
		l = dist
	}
	if dist >= h {
		h = math.Nextafter(dist, math.Inf(1))
	}
	return key{dist: l}, key{dist: h}
}

// appendToSegment encodes p into the segment's trailing page buffer,
// flushing full pages to the store.
func (q *Queue) appendToSegment(seg *segment, p Pair) {
	if q.err != nil {
		return
	}
	p.encode(seg.buf[seg.bufCount*RecordSize:])
	seg.bufCount++
	seg.count++
	q.disk++
	if seg.bufCount == q.perPage {
		q.flushSegmentPage(seg)
	}
}

// flushSegmentPage writes the segment's buffered records to a page.
func (q *Queue) flushSegmentPage(seg *segment) {
	id, err := q.allocPage()
	if err != nil {
		q.err = err
		return
	}
	if err := q.store.WritePage(id, seg.buf); err != nil {
		q.err = err
		return
	}
	q.mc.QueueIO(0, 1, q.ioCost.SequentialPageCost())
	seg.pages = append(seg.pages, id)
	seg.bufCount = 0
}

func (q *Queue) allocPage() (storage.PageID, error) {
	if n := len(q.free); n > 0 {
		id := q.free[n-1]
		q.free = q.free[:n-1]
		return id, nil
	}
	return q.store.Alloc()
}

// swapIn loads the lowest-range segment into the heap; when it holds
// more than the capacity, keep sends its longer tail back to disk.
// Returns false when no segment exists or an error latched.
func (q *Queue) swapIn() bool {
	if len(q.segs) == 0 || q.err != nil {
		return false
	}
	// A reload is about to happen: injection point before any state is
	// mutated, so a failed reload leaves segments intact and latches.
	if q.fault != nil {
		if err := q.fault(FaultReload); err != nil {
			q.err = err
			return false
		}
	}
	seg := q.segs[0]
	q.segs = q.segs[1:]
	q.disk -= seg.count
	q.memBound = seg.hi

	buf := getPairBuf(seg.count)
	items := buf.items
	page := getPageBuf(q.store.PageSize())
	for _, id := range seg.pages {
		if err := q.store.ReadPage(id, page); err != nil {
			q.err = err
			buf.items = items
			putPairBuf(buf)
			putPageBuf(page)
			putSegment(seg)
			return false
		}
		q.mc.QueueIO(1, 0, q.ioCost.SequentialPageCost())
		for i := 0; i < q.perPage; i++ {
			items = append(items, decodePair(page[i*RecordSize:]))
		}
		q.free = append(q.free, id)
	}
	putPageBuf(page)
	for i := 0; i < seg.bufCount; i++ {
		items = append(items, decodePair(seg.buf[i*RecordSize:]))
	}

	loaded := len(items)
	if loaded > q.capacity {
		sort.Sort(byPairOrder(items))
		q.keep(items, q.capacity)
	} else {
		for _, p := range items {
			q.heap.Push(p)
		}
	}
	// Everything is copied into the heap (or re-encoded into a new
	// segment by keep); recycle the slab before the possible tail call
	// so a chain of empty segments reuses one slab.
	buf.items = items
	putPairBuf(buf)
	if q.tr.Enabled() {
		q.tr.Emit(trace.Event{
			Kind:     trace.KindQueueReload,
			Dist:     seg.lo.dist,
			Count:    int64(q.heap.Len()),
			MemLen:   q.heap.Len(),
			DiskLen:  q.disk,
			Segments: len(q.segs),
		})
	}
	// The segment is fully consumed — every record decoded and copied
	// onward — so it recycles whole (header, page list, write buffer).
	putSegment(seg)
	return loaded > 0 || q.swapIn()
}

// Drain removes all pairs (used between experiment stages).
func (q *Queue) Drain() {
	defer q.lock()()
	q.heap.Clear()
	for _, s := range q.segs {
		q.free = append(q.free, s.pages...)
		putSegment(s)
	}
	q.segs = nil
	q.disk = 0
	q.memBound = unbounded
}

// String summarizes the queue state for diagnostics.
func (q *Queue) String() string {
	defer q.lock()()
	return fmt.Sprintf("hybridq{mem=%d/%d bound=%g segs=%d total=%d}",
		q.heap.Len(), q.capacity, q.memBound.dist, len(q.segs), q.heap.Len()+q.disk)
}
