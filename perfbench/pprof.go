package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// The packet-loop split reads the CPU profile the traced run takes with
// runtime/pprof. The standard library writes profiles but cannot read them,
// so this file decodes just enough of the gzipped profile.proto: samples,
// locations, functions and the string table.

// stackSample is one profile sample: its call stack as function names, leaf
// first, and how many times it was sampled.
type stackSample struct {
	frames []string
	count  int64
}

var errProto = errors.New("malformed profile")

// protoFields walks the fields of one protobuf message. For varint and
// fixed-width fields v holds the value; for length-delimited ones data.
func protoFields(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire != 2 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errProto
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}

// parseProfile decodes a gzipped pprof CPU profile into stack samples,
// weighting each by its sample count (the profile's first value).
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []rawSample
		strs    []string
		funcs   = map[uint64]uint64{}   // function ID → name string index
		locs    = map[uint64][]uint64{} // location ID → function IDs, leaf first
	)
	err = protoFields(raw, func(num, wire int, _ uint64, data []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			var vals []uint64
			err := protoFields(data, func(n, w int, v uint64, d []byte) (err error) {
				switch n {
				case 1:
					s.locs, err = appendVarints(s.locs, w, v, d)
				case 2:
					vals, err = appendVarints(vals, w, v, d)
				}
				return err
			})
			if err != nil || len(vals) == 0 {
				return errProto
			}
			s.count = int64(vals[0])
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(data, func(n, _ int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line
					return protoFields(d, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locs[id] = fns
		case 5: // Function
			var id, name uint64
			err := protoFields(data, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		st := stackSample{count: s.count}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if idx := funcs[f]; idx < uint64(len(strs)) {
					st.frames = append(st.frames, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

const (
	cirPkg    = "clara/internal/cir."
	nicsimPkg = "clara/internal/nicsim."
)

// loopRules attribute profile samples to the packet loop's parts by package
// and type prefix, so renames inside a package keep the split intact. flat
// rules look at the sampled (leaf) function only; the others at any frame of
// the stack.
var loopRules = []struct {
	name     string
	flat     bool
	prefixes []string
}{
	{"loop.dispatch_pct", true, []string{cirPkg}},
	{"loop.vcall_pct", false, []string{nicsimPkg + "(*exec).VCall"}},
	{"loop.state_pct", false, []string{
		nicsimPkg + "(*exec).map", nicsimPkg + "(*exec).lpm", nicsimPkg + "(*exec).dpi",
		nicsimPkg + "(*mapState).", nicsimPkg + "(*lpmState).", nicsimPkg + "(*sketchState).",
		nicsimPkg + "(*arrayState).",
	}},
	{"loop.oninstr_pct", false, []string{nicsimPkg + "(*exec).onInstr"}},
	{"loop.threadheap_pct", false, []string{nicsimPkg + "(*threadHeap)."}},
	{"loop.hub_pct", false, []string{nicsimPkg + "(*Sim).hubVisit"}},
	{"loop.cache_pct", false, []string{nicsimPkg + "(*cache)."}},
	{"go.gc_pct", false, []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject"}},
}

// loopSplit returns each rule's share of all samples in percent.
func loopSplit(samples []stackSample) map[string]float64 {
	var total int64
	hits := make([]int64, len(loopRules))
	for _, s := range samples {
		total += s.count
		for i, rule := range loopRules {
			frames := s.frames
			if rule.flat && len(frames) > 0 {
				frames = frames[:1]
			}
			if anyPrefix(frames, rule.prefixes) {
				hits[i] += s.count
			}
		}
	}
	out := make(map[string]float64, len(loopRules))
	for i, rule := range loopRules {
		out[rule.name] = 0
		if total > 0 {
			out[rule.name] = 100 * float64(hits[i]) / float64(total)
		}
	}
	return out
}

func anyPrefix(frames, prefixes []string) bool {
	for _, f := range frames {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) {
				return true
			}
		}
	}
	return false
}

// captureProfile runs fn under the CPU profiler and returns the gzipped
// profile.
func captureProfile(fn func() error) ([]byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	err := fn()
	pprof.StopCPUProfile()
	return buf.Bytes(), err
}

// profiled runs fn under the CPU profiler and returns the profile's loop
// split.
func profiled(fn func() error) (map[string]float64, error) {
	raw, err := captureProfile(fn)
	if err != nil {
		return nil, err
	}
	samples, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	return loopSplit(samples), nil
}
