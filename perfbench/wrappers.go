package main

import (
	"sync/atomic"
	"time"

	"distjoin/internal/estimate"
	"distjoin/internal/storage"
)

// timedStore wraps the storage.Store behind an R-tree or a main queue
// and times every page read and write. The traced runs install it
// through rtree.Builder.Pack and join.Options.QueueStore.
type timedStore struct {
	storage.Store
	reads, writes   atomic.Int64
	readNS, writeNS atomic.Int64
}

func newTimedStore() *timedStore {
	return &timedStore{Store: storage.NewMemStore(storage.DefaultPageSize)}
}

func (s *timedStore) ReadPage(id storage.PageID, buf []byte) error {
	t := time.Now()
	err := s.Store.ReadPage(id, buf)
	s.readNS.Add(int64(time.Since(t)))
	s.reads.Add(1)
	return err
}

func (s *timedStore) WritePage(id storage.PageID, buf []byte) error {
	t := time.Now()
	err := s.Store.WritePage(id, buf)
	s.writeNS.Add(int64(time.Since(t)))
	s.writes.Add(1)
	return err
}

// ioSeconds returns the time spent in reads and writes so far.
func (s *timedStore) ioSeconds() (read, write float64) {
	return float64(s.readNS.Load()) / 1e9, float64(s.writeNS.Load()) / 1e9
}

// timedEstimator wraps the eDmax estimator and times every call. It
// delegates to the same uniform model the engine builds by default, so
// installing it leaves the query unchanged.
type timedEstimator struct {
	inner estimate.Estimator
	calls int64
	ns    int64
}

func (e *timedEstimator) Initial(k int) float64 {
	t := time.Now()
	v := e.inner.Initial(k)
	e.ns += int64(time.Since(t))
	e.calls++
	return v
}

func (e *timedEstimator) Correct(mode estimate.Mode, k, k0 int, dK0 float64) float64 {
	t := time.Now()
	v := e.inner.Correct(mode, k, k0, dK0)
	e.ns += int64(time.Since(t))
	e.calls++
	return v
}
