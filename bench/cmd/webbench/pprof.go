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

// This file reads the CPU profiles runtime/pprof writes (gzipped
// profile.proto) far enough to attribute samples: each sample's count and
// its stack of function names, leaf first, with inlined frames expanded.
// The module has no dependencies, so it decodes the few protobuf fields it
// needs itself.

// stackSample is one profile sample: count hits on the stack, leaf first.
type stackSample struct {
	stack []string
	count int64
}

// decodeProfile parses a gzipped CPU profile.
func decodeProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string table index
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendUints(&s.locs, v, b)
				case 2:
					var u []uint64
					if err := appendUints(&u, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		out = append(out, stackSample{stack: stack, count: s.values[0]})
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling f with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped; no field this reader needs uses them.
func eachField(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
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

// appendUints appends a repeated varint field, packed (data) or not (v).
func appendUints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// funcPackage returns the import path of a symbol such as
// "webharmony/internal/simnet.(*Engine).RunUntil" or "math.Exp".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// cpuBucket maps a symbol to its cpu.<name> bucket by package.
func cpuBucket(fn string) string {
	pkg := funcPackage(fn)
	if name, ok := strings.CutPrefix(pkg, "webharmony/internal/"); ok {
		for _, p := range cpuPackages {
			if p == name {
				return p
			}
		}
		return "other"
	}
	switch {
	case pkg == "math":
		return "math"
	case pkg == "encoding/json":
		return "json"
	case pkg == "net", pkg == "internal/poll", pkg == "syscall", pkg == "internal/runtime/syscall":
		// System calls: loopback TCP for harmonyd, rare file writes elsewhere.
		return "net"
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"),
		!strings.Contains(fn, "."): // assembly helpers such as aeshashbody
		return "runtime"
	}
	return "other"
}

// acctBoundary returns the accounting class a frame opens, if any.
func acctBoundary(fn string) (string, bool) {
	switch fn {
	case "webharmony/internal/core.NewLab", "webharmony/internal/core.(*Lab).EvalConfig.func1":
		// EvalConfig's compute closure builds and stages the fresh lab;
		// the simulation itself is MeasureIteration, a deeper boundary.
		return "build", true
	case "webharmony/internal/core.(*Lab).MeasureIteration":
		return "simulate", true
	case "webharmony/internal/core.evalSpec":
		return "cache", true
	case "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge":
		return "gc", true
	}
	switch funcPackage(fn) {
	case "webharmony/internal/evalcache":
		return "cache", true
	case "webharmony/internal/harmony":
		return "tune", true
	case "webharmony/internal/telemetry":
		return "telemetry", true
	}
	return "", false
}

// profileShares turns samples into cpu.<pkg> self-time shares and acct.<class>
// shares, both in % of all samples; every name in cpuPackages and
// acctClasses, plus cpu.other, is present. The acct class of a sample is
// that of the innermost boundary frame on its stack, so the classes are
// disjoint and sum to 100%.
func profileShares(samples []stackSample) (cpu, acct map[string]float64, total int64) {
	cpu = map[string]float64{"other": 0}
	for _, p := range cpuPackages {
		cpu[p] = 0
	}
	acct = map[string]float64{}
	for _, c := range acctClasses {
		acct[c] = 0
	}
	for _, s := range samples {
		total += s.count
		leaf := "other"
		if len(s.stack) > 0 {
			leaf = cpuBucket(s.stack[0])
		}
		cpu[leaf] += float64(s.count)
		class := "other"
		for _, fn := range s.stack {
			if c, ok := acctBoundary(fn); ok {
				class = c
				break
			}
		}
		acct[class] += float64(s.count)
	}
	if total > 0 {
		for k := range cpu {
			cpu[k] *= 100 / float64(total)
		}
		for k := range acct {
			acct[k] *= 100 / float64(total)
		}
	}
	return cpu, acct, total
}
