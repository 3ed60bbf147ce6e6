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

// cpuShares decodes a gzipped pprof CPU profile (the profile.proto
// format runtime/pprof writes) and returns each package's share of the
// sampled CPU time spent in its own frames: a sample is charged to the
// innermost function of its leaf location. Packages of this module are
// named by their last path element; the Go runtime (runtime and
// internal/runtime/...) is "runtime"; the rest is "other".
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		value []int64
	}
	var (
		samples    []sample
		leafFunc   = map[uint64]uint64{} // location id -> innermost function id
		funcName   = map[uint64]int64{}  // function id -> string table index
		strs       []string
		valueTypes []int64 // string table index of each sample value's type
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, func(num int, v uint64, _ []byte) error {
				if num == 1 {
					valueTypes = append(valueTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					ids, err := uints(v, b)
					if len(ids) > 0 && s.leaf == 0 {
						s.leaf = ids[0]
					}
					return err
				case 2:
					vals, err := uints(v, b)
					for _, x := range vals {
						s.value = append(s.value, int64(x))
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, fn uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line; the first is the innermost inlined frame
					if fn == 0 {
						return fields(b, func(num int, v uint64, _ []byte) error {
							if num == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			leafFunc[id] = fn
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
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
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	col := len(valueTypes) - 1
	for i, t := range valueTypes {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			col = i
		}
	}
	byPkg := map[string]float64{}
	var all float64
	for _, s := range samples {
		if col < 0 || col >= len(s.value) {
			continue
		}
		name := ""
		if i := funcName[leafFunc[s.leaf]]; i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		byPkg[pkgOf(name)] += float64(s.value[col])
		all += float64(s.value[col])
	}
	if all > 0 {
		for k := range byPkg {
			byPkg[k] /= all
		}
	}
	return byPkg, nil
}

// pkgOf rolls a profiled function name up to its package's metric name.
func pkgOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "repro/internal/"):
		pkg, _, _ := strings.Cut(strings.TrimPrefix(fn, "repro/internal/"), ".")
		for _, p := range hostPackages {
			if p == pkg {
				return pkg
			}
		}
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// fields walks one protobuf message, calling f with each field's number
// and either its varint value or its length-delimited bytes. Fixed-width
// fields are skipped; profile.proto uses none that matter here.
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
			data, b = b[n:n+int(l)], b[n+int(l):]
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

// uints decodes a repeated varint field occurrence: a single value, or
// a packed run when data is set.
func uints(v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		out = append(out, x)
		data = data[n:]
	}
	return out, nil
}
