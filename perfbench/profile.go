package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
)

// layers are the self-time buckets of the CPU-profile fold: the
// repository's internal packages (subpackages fold into their parent:
// bench/memo into bench, place/eval into place), "other" for any internal
// package not listed, and go-runtime for samples with no internal frame.
var layers = []string{"hw", "sim", "engine", "jvm", "apps", "gen", "metrics", "profiler", "ring", "bench", "place", "other", "go-runtime"}

const internalPrefix = "streamscale/internal/"

// startProfile starts the CPU profiler writing to path and returns the
// function that stops it and closes the file.
func startProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// fold is a CPU profile's samples assigned to layers.
type fold struct {
	samples      map[string]int64
	self         map[string]float64 // seconds
	total        int64
	totalSeconds float64
}

// foldProfile reads a CPU profile and gives each sample to the layer of
// the innermost streamscale/internal frame on its stack (inlined frames
// included), or to go-runtime when there is none.
func foldProfile(path string) (*fold, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	fd := &fold{samples: map[string]int64{}, self: map[string]float64{}}
	for _, s := range p.samples {
		layer := "go-runtime"
	stack:
		for _, loc := range s.locs {
			for _, fn := range p.locLines[loc] {
				name := p.funcName[fn]
				if !strings.HasPrefix(name, internalPrefix) {
					continue
				}
				pkg := strings.TrimPrefix(name, internalPrefix)
				if i := strings.IndexAny(pkg, "./"); i >= 0 {
					pkg = pkg[:i]
				}
				layer = pkg
				if !known[layer] {
					layer = "other"
				}
				break stack
			}
		}
		fd.samples[layer] += s.count
		fd.self[layer] += float64(s.nanos) / 1e9
		fd.total += s.count
		fd.totalSeconds += float64(s.nanos) / 1e9
	}
	var sum int64
	for _, l := range layers {
		sum += fd.samples[l]
	}
	if sum != fd.total {
		return nil, fmt.Errorf("profile fold assigned %d of %d samples", sum, fd.total)
	}
	return fd, nil
}

// profile is the part of a pprof profile the fold needs.
type profile struct {
	samples  []sample
	locLines map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]string
}

type sample struct {
	locs         []uint64 // leaf first
	count, nanos int64
}

// parseProfile decodes a gzipped profile.proto message: sample types,
// samples, locations, functions and the string table.
func parseProfile(raw []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		types   [][2]int64 // (type, unit) string indices per sample value
		rawSmp  []struct{ locs, vals []uint64 }
		funcIdx = map[uint64]int64{}
		strs    []string
	)
	p := &profile{locLines: map[uint64][]uint64{}, funcName: map[uint64]string{}}
	err = fields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var t [2]int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					t[n-1] = int64(v)
				}
				return nil
			})
			types = append(types, t)
			return err
		case 2: // sample
			var s struct{ locs, vals []uint64 }
			err := fields(b, func(n int, v uint64, pb []byte) error {
				switch n {
				case 1:
					return appendPacked(&s.locs, v, pb)
				case 2:
					return appendPacked(&s.vals, v, pb)
				}
				return nil
			})
			rawSmp = append(rawSmp, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(lb, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcIdx[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	for id, si := range funcIdx {
		p.funcName[id] = str(si)
	}
	countIdx, nanosIdx := -1, -1
	for i, t := range types {
		switch {
		case str(t[0]) == "samples" && str(t[1]) == "count":
			countIdx = i
		case str(t[0]) == "cpu" && str(t[1]) == "nanoseconds":
			nanosIdx = i
		}
	}
	if countIdx < 0 || nanosIdx < 0 {
		return nil, errors.New("not a CPU profile (no samples/count and cpu/nanoseconds values)")
	}
	for _, s := range rawSmp {
		if len(s.vals) != len(types) {
			return nil, fmt.Errorf("sample has %d values, profile declares %d", len(s.vals), len(types))
		}
		p.samples = append(p.samples, sample{locs: s.locs, count: int64(s.vals[countIdx]), nanos: int64(s.vals[nanosIdx])})
	}
	return p, nil
}

// fields walks a protobuf message, calling f with each field's number and
// either its varint value or its length-delimited bytes. Fixed-width
// fields, which profile.proto does not use, are skipped.
func fields(b []byte, f func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field's value: one varint, or a
// packed run of them.
func appendPacked(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}
