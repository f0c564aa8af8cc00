package main

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// Open-loop load generation. Requests are due at evenly spaced times
// whatever the server does; each of a fixed number of connections
// takes the next due request when it is free. A request's latency is
// timed from when it was due, so a stall shows in every request queued
// behind it, and the generator's lag (sent minus due) shows how far
// behind the schedule it fell.

// arrival is one scheduled request.
type arrival struct {
	due  time.Duration // since the phase started
	kind int
}

// schedule returns rate requests per second for dur, evenly spaced,
// with the kinds in equal shares: each run of nkinds consecutive
// requests is a permutation of the kinds drawn from the seed.
func schedule(seed int64, rate float64, dur time.Duration, nkinds int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	n := int(rate * dur.Seconds())
	out := make([]arrival, n)
	var perm []int
	for i := range out {
		if i%nkinds == 0 {
			perm = rng.Perm(nkinds)
		}
		out[i] = arrival{due: time.Duration(float64(i) / rate * float64(time.Second)), kind: perm[i%nkinds]}
	}
	return out
}

// outcome is one completed (or failed) request.
type outcome struct {
	kind      int
	due, sent time.Duration // since the phase started
	done      time.Duration
	first     time.Duration // incremental sessions: first page received
	err       error
	admission float64 // seconds, from X-Distjoin-Admission-Wait
	engine    float64 // seconds, from ?explain=1 (0 when absent)
	bytes     int
}

func (o outcome) latency() float64 { return (o.done - o.due).Seconds() }
func (o outcome) lag() float64     { return (o.sent - o.due).Seconds() }

// openLoop runs the schedule over conns connections. Requests still
// waiting for a connection grace after the schedule's end are not
// sent; their number is returned as abandoned.
func openLoop(ctx context.Context, arrivals []arrival, conns int, grace time.Duration, do func(ctx context.Context, kind int) outcome) (outs []outcome, abandoned int) {
	if len(arrivals) == 0 {
		return nil, 0
	}
	// Sized to the number of sends, so the dispatcher never blocks and
	// a backlog shows as lag rather than as a late schedule.
	queue := make(chan arrival, len(arrivals))
	cutoff := arrivals[len(arrivals)-1].due + grace
	start := time.Now()
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range queue {
				sent := time.Since(start)
				if sent > cutoff || ctx.Err() != nil {
					mu.Lock()
					abandoned++
					mu.Unlock()
					continue
				}
				o := do(ctx, a.kind)
				o.kind, o.due, o.sent = a.kind, a.due, sent
				o.done = time.Since(start)
				if o.first > 0 {
					o.first += sent
				}
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	for _, a := range arrivals {
		if d := a.due - time.Since(start); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		queue <- a
	}
	close(queue)
	wg.Wait()
	return outs, abandoned
}

// lagSlopeLimit is how fast the generator may fall behind its
// schedule, in seconds of lag per second of schedule, before the
// backlog counts as growing: a rate 5% above capacity trips it.
const lagSlopeLimit = 0.05

// lagGrows reports whether the generator fell progressively behind:
// requests were abandoned, or the least-squares slope of send lag
// against due time exceeds lagSlopeLimit.
func lagGrows(outs []outcome, abandoned int) bool {
	if abandoned > 0 {
		return true
	}
	if len(outs) < 3 {
		return false
	}
	var mx, my float64
	for _, o := range outs {
		mx += o.due.Seconds()
		my += o.lag()
	}
	n := float64(len(outs))
	mx, my = mx/n, my/n
	var sxy, sxx float64
	for _, o := range outs {
		dx := o.due.Seconds() - mx
		sxy += dx * (o.lag() - my)
		sxx += dx * dx
	}
	return sxx > 0 && sxy/sxx > lagSlopeLimit
}
