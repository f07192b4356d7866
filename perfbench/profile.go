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

// Profile buckets, by the package that did the work. A CPU sample goes to
// the innermost stack frame in a livenas package or in encoding/gob, so
// runtime work done for a layer (malloc, GC assist, memmove) counts for
// that layer. Samples with no such frame (background GC, the scheduler)
// are runtime. frame, metrics, core, abr and the benchmark itself are
// other.
var buckets = []string{"vidgen", "codec", "sr_nn", "net", "edge_wire_gob", "other", "runtime"}

// bucketOf maps a livenas package (the path element after "livenas/" or
// "livenas/internal/") to its bucket.
func bucketOf(pkg string) string {
	switch pkg {
	case "vidgen":
		return "vidgen"
	case "codec":
		return "codec"
	case "sr", "nn":
		return "sr_nn"
	case "transport", "netem", "gcc", "sim":
		return "net"
	case "edge", "wire", "gob":
		return "edge_wire_gob"
	}
	return "other"
}

// funcPackage returns the livenas package a function name belongs to, or
// "gob" for encoding/gob, or "" for anything else.
func funcPackage(fn string) string {
	if strings.HasPrefix(fn, "encoding/gob.") {
		return "gob"
	}
	rest, ok := strings.CutPrefix(fn, "livenas/")
	if !ok {
		return ""
	}
	rest = strings.TrimPrefix(rest, "internal/")
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// profileShares runs fn under the CPU profiler and returns each bucket's
// share of the sampled CPU time, with the sample count.
func profileShares(fn func() error) (map[string]float64, int, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, 0, fmt.Errorf("start cpu profile: %w", err)
	}
	ferr := fn()
	pprof.StopCPUProfile()
	if ferr != nil {
		return nil, 0, ferr
	}
	p, err := parseProfile(&buf)
	if err != nil {
		return nil, 0, err
	}
	byBucket := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		b := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				if pkg := funcPackage(p.funcName(fid)); pkg != "" {
					b = bucketOf(pkg)
					break stack
				}
			}
		}
		byBucket[b] += s.value
		total += s.value
	}
	shares := map[string]float64{}
	for _, b := range buckets {
		shares[b] = ratio(float64(byBucket[b]), float64(total))
	}
	return shares, len(p.samples), nil
}

// The subset of profile.proto (github.com/google/pprof) the buckets need:
// samples with their location stacks, the functions each location's lines
// name, and the string table.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost inlined first
	funcs    map[uint64]int64    // function id -> name string index
	strs     []string
}

type sample struct {
	locs  []uint64 // leaf first
	value int64    // the last sample value: CPU nanoseconds
}

func (p *profile) funcName(id uint64) string {
	i := p.funcs[id]
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

func parseProfile(r io.Reader) (*profile, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var vals []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var fids []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locFuncs[id] = fids
		case 5: // Function
			var id uint64
			var name int64
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.funcs[id] = name
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

// appendVarints appends a repeated integer field's values, whether it was
// written packed (b holds varints) or as a single varint v.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("malformed protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value (b == nil) or its length-delimited
// bytes. Fixed-width fields are skipped.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		num, typ := int(key>>3), key&7
		switch typ {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return errProto
		}
	}
	return nil
}
