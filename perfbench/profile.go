package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU-profile attribution. A pprof CPU profile (gzipped protobuf, the
// format runtime/pprof and /debug/pprof/profile write) is decoded with
// a minimal reader of the fields used here, and each sample's CPU time
// is charged by self time to the package of its innermost frame
// (inlined calls included):
//
//   - this module's packages to their layers (packageLayer);
//   - the Go runtime to runtime, including the allocation, GC and
//     copying a layer causes;
//   - everything else to other: standard-library helpers such as sort
//     or encoding/json, net/http, syscalls, the benchmark itself.
//
// The report also charges the runtime and other samples to the layer of
// the innermost frame of this module on their stacks, to show which
// layer caused them; that view is printed, not emitted as metrics.

// cpuLayers are the layers reported as cpu_share.<layer>.
var cpuLayers = []string{"hybridq", "sweep", "rtree", "geom", "pqueue", "storage", "join", "serving", "runtime"}

// packageLayer maps this module's packages to layers.
var packageLayer = map[string]string{
	"distjoin":                   "join",
	"distjoin/internal/join":     "join",
	"distjoin/internal/estimate": "join",
	"distjoin/internal/metrics":  "join",
	"distjoin/internal/trace":    "join",
	"distjoin/internal/shard":    "join",
	"distjoin/internal/hybridq":  "hybridq",
	"distjoin/internal/sweep":    "sweep",
	"distjoin/internal/rtree":    "rtree",
	"distjoin/internal/geom":     "geom",
	"distjoin/internal/pqueue":   "pqueue",
	"distjoin/internal/storage":  "storage",
	"distjoin/internal/serving":  "serving",
	"distjoin/internal/obsrv":    "serving",
}

// cpuProfile is the decoded subset of a pprof profile.
type cpuProfile struct {
	samples []profSample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]int64    // function id -> name string index
	strs    []string
}

type profSample struct {
	locs  []uint64
	value int64
}

// cpuShares returns each layer's self share of the profile's CPU time,
// the runtime and other time charged to its calling layer ("none" when
// no frame of this module is on the stack), and the number of samples.
func cpuShares(gz []byte) (self, caused map[string]float64, n int, err error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, nil, 0, err
	}
	self, caused = map[string]float64{}, map[string]float64{}
	total := 0.0
	for _, s := range p.samples {
		v := float64(s.value)
		layer := p.layerOf(s)
		self[layer] += v
		if layer == "runtime" || layer == "other" {
			caused[p.callerLayer(s)] += v
		}
		total += v
	}
	if total > 0 {
		for _, m := range []map[string]float64{self, caused} {
			for k := range m {
				m[k] /= total
			}
		}
	}
	return self, caused, len(p.samples), nil
}

// frames returns the sample's function names, innermost first.
func (p *cpuProfile) frames(s profSample) []string {
	var out []string
	for _, l := range s.locs {
		for _, f := range p.locs[l] {
			if i := p.funcs[f]; i >= 0 && int(i) < len(p.strs) {
				out = append(out, p.strs[i])
			}
		}
	}
	return out
}

// layerOf returns the layer of the sample's innermost frame.
func (p *cpuProfile) layerOf(s profSample) string {
	fs := p.frames(s)
	if len(fs) == 0 {
		return "other"
	}
	pkg := funcPackage(fs[0])
	if layer, ok := packageLayer[pkg]; ok {
		return layer
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// callerLayer returns the layer of the innermost frame of this module
// on the sample's stack, or "none".
func (p *cpuProfile) callerLayer(s profSample) string {
	for _, f := range p.frames(s) {
		if layer, ok := packageLayer[funcPackage(f)]; ok {
			return layer
		}
	}
	return "none"
}

// funcPackage returns the import path of a pprof function name such as
// "distjoin/internal/pqueue.(*Heap[...]).Push".
func funcPackage(name string) string {
	if i := strings.IndexAny(name, "(["); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &cpuProfile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			return p.addSample(b)
		case 4: // location
			return p.addLocation(b)
		case 5: // function
			var id uint64
			name := int64(-1)
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6: // string_table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

func (p *cpuProfile) addSample(b []byte) error {
	var s profSample
	var values []int64
	err := eachField(b, func(n int, v uint64, sub []byte) error {
		switch n {
		case 1:
			if sub == nil {
				s.locs = append(s.locs, v)
				return nil
			}
			return eachVarint(sub, func(x uint64) { s.locs = append(s.locs, x) })
		case 2:
			if sub == nil {
				values = append(values, int64(v))
				return nil
			}
			return eachVarint(sub, func(x uint64) { values = append(values, int64(x)) })
		}
		return nil
	})
	if len(values) > 0 {
		// CPU profiles carry (samples, nanoseconds); use the last.
		s.value = values[len(values)-1]
	}
	p.samples = append(p.samples, s)
	return err
}

func (p *cpuProfile) addLocation(b []byte) error {
	var id uint64
	var fns []uint64
	err := eachField(b, func(n int, v uint64, sub []byte) error {
		switch n {
		case 1:
			id = v
		case 4: // line
			return eachField(sub, func(ln int, lv uint64, _ []byte) error {
				if ln == 1 {
					fns = append(fns, lv)
				}
				return nil
			})
		}
		return nil
	})
	p.locs[id] = fns
	return err
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks a protobuf message, calling fn with each field's
// number and either its varint value (sub == nil) or its
// length-delimited bytes. Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub := b[n : n+int(l)]
			b = b[n+int(l):]
			if sub == nil {
				sub = []byte{}
			}
			if err := fn(num, 0, sub); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

func eachVarint(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
