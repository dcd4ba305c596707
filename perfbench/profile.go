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

// layerOf maps every pert/internal package to the layer its CPU time counts
// toward. A package missing from this table fails the benchmark's tests, so
// a new package is placed deliberately instead of landing in "other".
var layerOf = map[string]string{
	"cache":             "cache",
	"core":              "core",
	"experiments":       "harness",
	"fluid":             "fluid",
	"harness":           "harness",
	"harness/cliconfig": "harness",
	"netem":             "netem",
	"obs":               "obs",
	"predictors":        "core",
	"queue":             "queue",
	"scenario":          "scenario",
	"sim":               "sim",
	"stats":             "stats",
	"tcp":               "tcp",
	"topo":              "scenario",
	"trafficgen":        "trafficgen",
}

const internalPrefix = "pert/internal/"

// funcLayer returns the layer of a profiled function: its pert/internal
// package's layer, "trace" for this benchmark's own decorators, "runtime"
// for the Go runtime (scheduler, allocator, GC) and "stdlib" for the rest.
func funcLayer(fn string) string {
	switch {
	case strings.HasPrefix(fn, internalPrefix):
		pkg := packageOf(strings.TrimPrefix(fn, internalPrefix))
		if l, ok := layerOf[pkg]; ok {
			return l
		}
		return "unmapped:" + pkg
	case strings.HasPrefix(fn, "main."):
		return "trace"
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/internal/") ||
		strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	}
	return "stdlib"
}

// sampleLayer attributes a sample to the layer of its innermost frame,
// except that a standard-library leaf (math, time, sort) counts toward the
// nearest repository caller — math.Log under a traffic generator is that
// generator's work — and a runtime leaf reached from the benchmark's own
// decorators (their clock reads) counts as tracing overhead. Other runtime
// leaves (allocation, GC, scheduling) stay "runtime".
func sampleLayer(frames []string) string {
	leaf := funcLayer(frames[0])
	if leaf != "stdlib" && leaf != "runtime" {
		return leaf
	}
	for _, f := range frames[1:] {
		if l := funcLayer(f); l != "stdlib" && l != "runtime" {
			if leaf == "stdlib" || l == "trace" {
				return l
			}
			break
		}
	}
	return leaf
}

// packageOf strips the symbol from a package-qualified function name:
// "harness/cliconfig.Parse" -> "harness/cliconfig".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// syncFrames are the sharded engine's synchronization functions. A sample
// is synchronization time when any frame is one of them (channel operations
// under drain, scheduler yields and sleeps under backoff), or when its leaf
// is Shard.run's own loop; Shard.run's callees are otherwise simulation.
var syncFrames = map[string]bool{
	"pert/internal/sim.(*Shard).horizon": true,
	"pert/internal/sim.(*Shard).drain":   true,
	"pert/internal/sim.(*Shard).backoff": true,
}

const shardRun = "pert/internal/sim.(*Shard).run"

// isSync reports whether a sample (innermost frame first) is shard
// synchronization.
func isSync(frames []string) bool {
	if frames[0] == shardRun {
		return true
	}
	for _, f := range frames {
		if syncFrames[f] {
			return true
		}
	}
	return false
}

// layerProfile is a CPU profile's self time aggregated by layer.
type layerProfile struct {
	total float64            // CPU nanoseconds in all samples
	layer map[string]float64 // self CPU nanoseconds per layer
	sync  float64            // CPU nanoseconds in shard synchronization
}

// share returns a layer's fraction of the profile.
func (p *layerProfile) share(layer string) float64 {
	if p.total == 0 {
		return 0
	}
	return p.layer[layer] / p.total
}

// aggregate reads a runtime/pprof CPU profile (gzipped profile.proto) and
// attributes each sample's CPU time to the layer of its innermost frame.
func aggregate(raw []byte) (*layerProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	pr, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	out := &layerProfile{layer: map[string]float64{}}
	name := func(fid uint64) string {
		idx := pr.funcName[fid]
		if idx < 0 || int(idx) >= len(pr.strings) {
			return ""
		}
		return pr.strings[idx]
	}
	for _, s := range pr.samples {
		if len(s.values) == 0 || len(s.locs) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1])
		out.total += v
		var frames []string // innermost first, inlined frames included
		for _, l := range s.locs {
			for _, fid := range pr.locFuncs[l] {
				frames = append(frames, name(fid))
			}
		}
		if len(frames) == 0 {
			out.layer["unknown"] += v
			continue
		}
		out.layer[sampleLayer(frames)] += v
		if isSync(frames) {
			out.sync += v
		}
	}
	return out, nil
}

// profile is the subset of profile.proto the aggregation needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// Field numbers from github.com/google/pprof/proto/profile.proto.
const (
	fProfileSample    = 2
	fProfileLocation  = 4
	fProfileFunction  = 5
	fProfileStrings   = 6
	fSampleLocationID = 1
	fSampleValue      = 2
	fLocationID       = 1
	fLocationLine     = 4
	fLineFunctionID   = 1
	fFunctionID       = 1
	fFunctionName     = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, sub []byte) error {
		switch num {
		case fProfileSample:
			var s sample
			err := eachField(sub, func(num, wire int, v uint64, sub []byte) error {
				switch num {
				case fSampleLocationID:
					return appendVarints(&s.locs, wire, v, sub)
				case fSampleValue:
					var u []uint64
					if err := appendVarints(&u, wire, v, sub); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var funcs []uint64
			err := eachField(sub, func(num, wire int, v uint64, sub []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(sub, func(num, wire int, v uint64, _ []byte) error {
						if num == fLineFunctionID {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case fProfileFunction:
			var id uint64
			var nameIdx int64
			err := eachField(sub, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					nameIdx = int64(v)
				}
				return nil
			})
			p.funcName[id] = nameIdx
			return err
		case fProfileStrings:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated integer field given either unpacked
// (one varint) or packed (a length-delimited run of varints).
func appendVarints(dst *[]uint64, wire int, v uint64, sub []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		sub = sub[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling fn with each field's number
// and wire type, and its value (varints) or payload (length-delimited).
func eachField(b []byte, fn func(num, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}
