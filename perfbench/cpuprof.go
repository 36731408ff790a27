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

// profiledPackages are the packages whose CPU-sample share the traced run
// reports: the program's internal packages, the Go runtime, the rest of the
// standard library ("std") and the benchmark itself.
var profiledPackages = []string{
	"arena", "baselines", "cache", "comm", "compress", "core", "csp", "featstore",
	"gen", "graph", "hw", "metrics", "nn", "partition", "pipeline", "prof", "rng",
	"sample", "serve", "sim", "strategy", "telemetry", "trace", "train",
	"runtime", "std", "perfbench",
}

// recordCPUShares attributes every sample of a runtime/pprof CPU profile to
// one package and records each package's share. A sample counts once, for
// the innermost frame of the repository (an internal package or the
// benchmark): runtime and standard-library frames, such as mallocgc or
// encoding/json, are charged to the repository code that called them.
// Samples with no repository frame, such as background GC, count for the
// leaf's package, runtime or std.
func (b *bench) recordCPUShares(gz []byte) error {
	byPkg, total, err := samplesByPackage(gz)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	b.layer("cpu_profile.samples", float64(total), int(total))
	if total == 0 {
		return nil
	}
	var line strings.Builder
	for _, pkg := range profiledPackages {
		share := float64(byPkg[pkg]) / float64(total)
		b.layer("cpu_share."+pkg, share, int(total))
		if share >= 0.01 {
			fmt.Fprintf(&line, " %s %.1f%%", pkg, 100*share)
		}
	}
	b.logf("cpu profile: %d samples;%s", total, line.String())
	return nil
}

// packageOf maps a profiled function name to a profiledPackages entry.
func packageOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "repro/internal/"):
		rest := strings.TrimPrefix(fn, "repro/internal/")
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			return rest[:i]
		}
		return rest
	case strings.HasPrefix(fn, "main."):
		return "perfbench"
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") || strings.HasPrefix(fn, "gcWriteBarrier"):
		return "runtime"
	default:
		return "std"
	}
}

// samplesByPackage decodes a gzipped pprof profile (profile.proto) and sums
// the first sample value (the sample count) by package, as recordCPUShares
// describes. Only the fields needed for that are decoded.
func samplesByPackage(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	type sampleRec struct {
		locs  []uint64 // leaf first
		count int64
	}
	var (
		samples  []sampleRec
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]int64{}    // function id -> string table index
		strs     []string
	)
	err = fields(raw, func(num int, v uint64, msg []byte) error {
		switch num {
		case 2: // Sample
			var s sampleRec
			firstVal := true
			err := fields(msg, func(num int, v uint64, sub []byte) error {
				switch num {
				case 1: // location_id, packed or not
					return eachVarint(v, sub, func(x uint64) { s.locs = append(s.locs, x) })
				case 2: // value, packed or not
					return eachVarint(v, sub, func(x uint64) {
						if firstVal {
							s.count, firstVal = int64(x), false
						}
					})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(msg, func(num int, v uint64, sub []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; inlined frames come innermost first
					return fields(sub, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := fields(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	name := func(fn uint64) string {
		if idx, ok := funcName[fn]; ok && idx >= 0 && int(idx) < len(strs) {
			return strs[idx]
		}
		return ""
	}
	out := map[string]int64{}
	var total int64
	for _, s := range samples {
		pkg := ""
	frames:
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				p := packageOf(name(fn))
				if pkg == "" {
					pkg = p // the leaf's package, unless a repository frame follows
				}
				if p != "runtime" && p != "std" {
					pkg = p
					break frames
				}
			}
		}
		out[pkg] += s.count
		total += s.count
	}
	return out, total, nil
}

// fields walks the top-level fields of a protobuf message, calling fn with
// the field number and either the varint value (msg nil) or the
// length-delimited payload.
func fields(buf []byte, fn func(num int, v uint64, msg []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			buf = buf[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return errors.New("short protobuf fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("bad protobuf length")
			}
			msg := buf[n : n+int(l)]
			buf = buf[n+int(l):]
			if err := fn(num, 0, msg); err != nil {
				return err
			}
		case 5:
			if len(buf) < 4 {
				return errors.New("short protobuf fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}

// eachVarint calls fn for a repeated varint field given either one unpacked
// value (packed nil) or a packed payload.
func eachVarint(v uint64, packed []byte, fn func(uint64)) error {
	if packed == nil {
		fn(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(x)
		packed = packed[n:]
	}
	return nil
}
