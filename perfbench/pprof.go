package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// The CPU profile runtime/pprof writes is a gzipped profile.proto
// message. cpuSamples decodes just what attribution needs - each
// sample's count and its stack as function names, leaf first (inlined
// frames expanded) - with a minimal protobuf reader, since the module
// takes no dependencies.

type pbField struct {
	num  int
	wire int
	v    uint64 // varint value
	b    []byte // length-delimited payload
}

func pbVarint(b []byte) (uint64, int, error) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1, nil
		}
	}
	return 0, 0, errors.New("pprof: bad varint")
}

// pbFields splits one message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n, err = pbVarint(b)
			if err != nil {
				return nil, err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("pprof: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n, err := pbVarint(b)
			if err != nil || uint64(len(b)-n) < l {
				return nil, errors.New("pprof: bad length")
			}
			f.b = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("pprof: short fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("pprof: wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbInts reads a repeated integer field, packed or not.
func pbInts(f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	b := f.b
	for len(b) > 0 {
		x, n, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}

type cpuSample struct {
	count int64
	stack []string
}

// cpuSamples decodes a gzipped CPU profile.
func cpuSamples(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{}   // function id -> name string index
	locFuncs := map[uint64][]uint64{} // location id -> function ids, leaf first
	type rawSample struct {
		locs []uint64
		vals []uint64
	}
	var samples []rawSample
	for _, f := range top {
		switch f.num {
		case 6:
			strs = append(strs, string(f.b))
		case 5:
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, g := range fs {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
			}
			funcName[id] = name
		case 4:
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range fs {
				switch g.num {
				case 1:
					id = g.v
				case 4:
					ls, err := pbFields(g.b)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							fns = append(fns, l.v)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 2:
			fs, err := pbFields(f.b)
			if err != nil {
				return nil, err
			}
			var s rawSample
			for _, g := range fs {
				xs, err := pbInts(g)
				if err != nil {
					return nil, err
				}
				switch g.num {
				case 1:
					s.locs = append(s.locs, xs...)
				case 2:
					s.vals = append(s.vals, xs...)
				}
			}
			samples = append(samples, s)
		}
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		cs := cpuSample{count: int64(s.vals[0])}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					cs.stack = append(cs.stack, strs[idx])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// cpuShares attributes a CPU profile's samples to layers, in percent.
func cpuShares(samples []cpuSample) map[string]float64 {
	by := map[string]int64{}
	var total int64
	for _, s := range samples {
		by[classify(s.stack)] += s.count
		total += s.count
	}
	out := map[string]float64{}
	for l, n := range by {
		out[l] = 100 * float64(n) / float64(total)
	}
	return out
}
