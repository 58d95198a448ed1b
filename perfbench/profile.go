package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU-profile self time by package. The knowledge-merge layer
// (internal/tree, internal/bitset) runs inside Machine.Step and has no
// public boundary the benchmark could wrap with a span, so its cost is
// read from a CPU profile of the traced runs instead. The profile is the
// gzipped protobuf runtime/pprof writes; the few fields needed here are
// decoded directly so the benchmark depends on the standard library
// only.

// profPackages maps an import path to the short layer name a metric is
// reported under; anything else counts as "other".
var profPackages = map[string]string{
	"doall/internal/tree":      "tree",
	"doall/internal/bitset":    "bitset",
	"doall/internal/perm":      "perm",
	"math/rand":                "rand",
	"math/rand/v2":             "rand",
	"doall/internal/core":      "core",
	"doall/internal/adversary": "adversary",
	"doall/internal/sim":       "sim",
	"doall/internal/wire":      "wire",
	"runtime":                  "runtime",
	"doall/internal/service":   "service",
	"doall/internal/twin":      "twin",
}

// profLayers is the reporting order of the per-package shares.
var profLayers = []string{"tree", "bitset", "perm", "rand", "core", "adversary", "sim", "wire", "runtime", "service", "twin", "other"}

// selfTime accumulates CPU nanoseconds by layer across profiles.
type selfTime map[string]int64

func (st selfTime) total() int64 {
	var t int64
	for _, v := range st {
		t += v
	}
	return t
}

// funcPackage returns the import path of a symbol name as the Go
// runtime writes it, e.g. "doall/internal/tree.(*Tree).PropagateUp" →
// "doall/internal/tree", "runtime.mallocgc" → "runtime".
func funcPackage(name string) string {
	head := name
	if i := strings.IndexByte(head, '['); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	dot := strings.IndexByte(head[slash+1:], '.')
	if dot < 0 {
		return head
	}
	return head[:slash+1+dot]
}

func layerOf(name string) string {
	pkg := funcPackage(name)
	if l, ok := profPackages[pkg]; ok {
		return l
	}
	if strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// addProfile decodes one gzipped CPU profile and adds each sample's CPU
// time to the layer of its leaf function (the innermost inlined frame).
func (st selfTime) addProfile(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	type sampleRec struct {
		leaf  uint64
		value []int64
	}
	var (
		samples []sampleRec
		strs    []string
		locFn   = map[uint64]uint64{} // location id → leaf function id
		fnName  = map[uint64]int64{}  // function id → string index
		nvalues int                   // number of sample types
	)
	err = pbFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			nvalues++
		case 2: // sample
			var s sampleRec
			first := true
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return pbUints(w, v, b, func(x uint64) {
						if first {
							s.leaf, first = x, false
						}
					})
				case 2:
					return pbUints(w, v, b, func(x uint64) { s.value = append(s.value, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, fn uint64
			haveLine := false
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					if haveLine {
						return nil // line[0] is the innermost inlined frame
					}
					haveLine = true
					return pbFields(b, func(f, w int, v uint64, b []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFn[id] = fn
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
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
		return err
	}
	if nvalues < 2 {
		return errors.New("profile: not a CPU profile (want samples and cpu nanoseconds)")
	}
	for _, s := range samples {
		if len(s.value) < 2 {
			continue
		}
		name := ""
		if idx := fnName[locFn[s.leaf]]; idx >= 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		st[layerOf(name)] += s.value[1]
	}
	return nil
}

// pbFields walks the top-level fields of one protobuf message, handing
// varints as v and length-delimited fields as b.
func pbFields(buf []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := pbVarint(buf)
		if n == 0 {
			return errors.New("profile: truncated field key")
		}
		buf = buf[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = pbVarint(buf)
			if n == 0 {
				return errors.New("profile: truncated varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := pbVarint(buf)
			if n == 0 || uint64(len(buf)-n) < l {
				return errors.New("profile: truncated bytes")
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// pbUints decodes a repeated integer field in either encoding: one
// varint (wire type 0) or a packed run (wire type 2).
func pbUints(wire int, v uint64, b []byte, fn func(uint64)) error {
	if wire == 0 {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n == 0 {
			return errors.New("profile: truncated packed varint")
		}
		fn(x)
		b = b[n:]
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
