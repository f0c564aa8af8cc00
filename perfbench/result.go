package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints: the correctness verdict, the number
// of checked operations and failures, and the metrics.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	samples map[string]int // sample count behind each metric, for the report
	notes   []string       // readable lines for standard error
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]metric{}, samples: map[string]int{}}
}

// set records a metric measured from n samples.
func (r *result) set(name, unit string, v float64, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

// check counts one checked operation; a false ok is a failure.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.Correct = false
		if r.Failed <= 5 {
			r.notef("FAILED: "+format, args...)
		}
	}
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// report writes the readable form of r: notes, then every metric with
// its unit and sample count.
func (r *result) report(w io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-34s %14s %-6s n=%d\n", n, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit, r.samples[n])
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d failed_frac=%g\n",
		r.Correct, r.Attempted, r.Failed, r.failedFrac())
}

func (r *result) failedFrac() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// setSuccess records success_frac, the complement of failed_frac:
// failed_frac is 0 on every healthy run, and a metric that reads 0
// has no spread to compare against.
func (r *result) setSuccess() {
	r.set("success_frac", "ratio", 1-r.failedFrac(), r.Attempted)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentiles are the candidates for a tail figure, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest percentile of xs that has at least ten
// samples beyond it, and which percentile that is. With fewer than 20
// samples no percentile qualifies and the maximum (reported as 100)
// stands in.
func tail(xs []float64) (v, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	n := float64(len(s))
	for _, p := range tailPercentiles {
		if n*(100-p)/100 >= 10 {
			i := int(math.Ceil(n*p/100)) - 1
			return s[max(i, 0)], p
		}
	}
	return s[len(s)-1], 100
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// setLatency records a median and tail pair, noting the tail's
// percentile.
func (r *result) setLatency(p50Name, tailName string, xs []float64) {
	r.set(p50Name, "s", median(xs), len(xs))
	v, pct := tail(xs)
	r.set(tailName, "s", v, len(xs))
	r.notef("%s is p%g of %d samples", tailName, pct, len(xs))
}

// rssSampler records the largest resident set size of a process seen
// by polling /proc/<pid>/statm every 10 ms. Polling allocates nothing,
// so it does not disturb alloc_mb_per_query.
type rssSampler struct {
	f    *os.File
	buf  [256]byte
	stop chan struct{}
	done chan struct{}
	peak int64 // pages
	err  error
}

// sampleRSS starts sampling process pid (0 for this process).
func sampleRSS(pid int) (*rssSampler, error) {
	path := "/proc/self/statm"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/statm", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s := &rssSampler{f: f, stop: make(chan struct{}), done: make(chan struct{})}
	s.poll()
	go func() {
		defer close(s.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.poll()
				return
			case <-t.C:
				s.poll()
			}
		}
	}()
	return s, nil
}

// poll reads the second field of statm, the resident page count.
func (s *rssSampler) poll() {
	if s.err != nil {
		return
	}
	n, err := s.f.ReadAt(s.buf[:], 0)
	if err != nil && err != io.EOF {
		s.err = err
		return
	}
	b := s.buf[:n]
	i := 0
	for i < len(b) && b[i] != ' ' {
		i++
	}
	var pages int64
	digits := 0
	for i++; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		pages = pages*10 + int64(b[i]-'0')
		digits++
	}
	if digits == 0 {
		s.err = fmt.Errorf("%s: no resident size in %q", s.f.Name(), b)
		return
	}
	s.peak = max(s.peak, pages)
}

// finish stops sampling and returns the peak in MB.
func (s *rssSampler) finish() (float64, error) {
	close(s.stop)
	<-s.done
	s.f.Close()
	return float64(s.peak*int64(os.Getpagesize())) / 1e6, s.err
}
