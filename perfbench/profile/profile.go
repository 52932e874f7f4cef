// Package profile reads gzip'd pprof CPU profiles (profile.proto) with the
// standard library alone and folds their samples into this repository's
// layers.
//
// The reader decodes only what folding needs: sample types, samples,
// locations (with their inlined line entries), functions and the string
// table.
package profile

import (
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Profile is the decoded subset of a profile.proto message.
type Profile struct {
	// SampleTypes names each sample value, e.g. "samples/count" and
	// "cpu/nanoseconds".
	SampleTypes []string
	Samples     []Sample
	// Functions maps function id to its name.
	Functions map[uint64]string
	// Locations maps location id to the function ids of its line
	// entries, innermost (inlined) first.
	Locations map[uint64][]uint64
}

// Sample is one stack with its values, leaf location first.
type Sample struct {
	Locations []uint64
	Values    []int64
}

// Parse decodes a profile, gunzipping it first when it is compressed.
func Parse(r io.Reader) (*Profile, error) {
	br := bufio.NewReader(r)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		defer zr.Close()
		r = zr
	} else {
		r = br
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("profile: read: %w", err)
	}
	return decode(data)
}

// field is one decoded protobuf field: varint fields fill num, length
// delimited fields fill buf.
type field struct {
	tag  int
	wire int
	num  uint64
	buf  []byte
}

var errTruncated = errors.New("profile: truncated message")

func varint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errTruncated
}

// fields walks one message's fields in order.
func fields(b []byte, visit func(field) error) error {
	for len(b) > 0 {
		key, n, err := varint(b)
		if err != nil {
			return err
		}
		b = b[n:]
		f := field{tag: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.num, n, err = varint(b); err != nil {
				return err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n, err := varint(b)
			if err != nil {
				return err
			}
			b = b[n:]
			if uint64(len(b)) < l {
				return errTruncated
			}
			f.buf, b = b[:l], b[l:]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		if err := visit(f); err != nil {
			return err
		}
	}
	return nil
}

// repeated appends a repeated integer field, packed or not.
func repeated(f field, dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.num), nil
	}
	b := f.buf
	for len(b) > 0 {
		v, n, err := varint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

func decode(data []byte) (*Profile, error) {
	p := &Profile{Functions: map[uint64]string{}, Locations: map[uint64][]uint64{}}
	var (
		strs      []string
		typeIdx   [][2]uint64
		funcNames = map[uint64]uint64{}
	)
	err := fields(data, func(f field) error {
		switch f.tag {
		case 1: // sample_type
			var vt [2]uint64
			err := fields(f.buf, func(g field) error {
				if g.tag == 1 || g.tag == 2 {
					vt[g.tag-1] = g.num
				}
				return nil
			})
			typeIdx = append(typeIdx, vt)
			return err
		case 2: // sample
			var s Sample
			err := fields(f.buf, func(g field) error {
				var err error
				switch g.tag {
				case 1:
					s.Locations, err = repeated(g, s.Locations)
				case 2:
					var vs []uint64
					vs, err = repeated(g, nil)
					for _, v := range vs {
						s.Values = append(s.Values, int64(v))
					}
				}
				return err
			})
			p.Samples = append(p.Samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(f.buf, func(g field) error {
				switch g.tag {
				case 1:
					id = g.num
				case 4: // line
					return fields(g.buf, func(h field) error {
						if h.tag == 1 {
							fns = append(fns, h.num)
						}
						return nil
					})
				}
				return nil
			})
			p.Locations[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := fields(f.buf, func(g field) error {
				switch g.tag {
				case 1:
					id = g.num
				case 2:
					name = g.num
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(f.buf))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for _, vt := range typeIdx {
		p.SampleTypes = append(p.SampleTypes, str(vt[0])+"/"+str(vt[1]))
	}
	for id, name := range funcNames {
		p.Functions[id] = str(name)
	}
	return p, nil
}

// Stack returns a sample's function names, leaf first, with inlined
// frames expanded.
func (p *Profile) Stack(s Sample) []string {
	var out []string
	for _, loc := range s.Locations {
		for _, fn := range p.Locations[loc] {
			out = append(out, p.Functions[fn])
		}
	}
	return out
}

// CPUIndex returns the index of the "cpu/nanoseconds" sample value.
func (p *Profile) CPUIndex() (int, error) {
	for i, t := range p.SampleTypes {
		if t == "cpu/nanoseconds" {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile: no cpu/nanoseconds sample type in %v", p.SampleTypes)
}

// Package returns the import path of a symbol name such as
// "strider/internal/memsim.(*cache).lookup" or "net/http.(*conn).serve".
func Package(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// Layer names. VMSetup is every sample under vm.New; RuntimeGC is every
// stack with no mapped frame at all (GC workers, the scheduler).
const (
	VMSetup   = "vm.setup"
	RuntimeGC = "runtime.gc"
	Other     = "other"
)

// layerTable maps a package (or a package tree, when the key ends in "/")
// to its layer. Packages outside the table, runtime and most of the
// standard library included, are charged to the nearest mapped caller.
var layerTable = map[string]string{
	"strider/internal/memsim":    "memsim",
	"strider/internal/interp":    "interp",
	"strider/internal/compile":   "interp",
	"strider/internal/heap":      "heap",
	"strider/internal/core/":     "jit",
	"strider/internal/static":    "jit",
	"strider/internal/cfg":       "jit",
	"strider/internal/dataflow":  "jit",
	"strider/internal/ir":        "ir",
	"strider/internal/value":     "ir",
	"strider/internal/classfile": "ir",
	"strider/internal/vm":        "vm",
	"strider/internal/workloads": "workloads",
	"strider/internal/progfuzz":  "workloads",
	"strider/internal/harness":   "harness",
	"strider/cmd/experiments":    "harness",
	"strider/internal/oracle":    "oracle",
	"strider/internal/server":    "server",
	"strider/cmd/striderd":       "server",
	"net/http":                   "server",
	"encoding/json":              "server",
	"strider/":                   Other,
}

// Layers lists every layer Fold can report, in a stable order.
var Layers = []string{
	"memsim", "interp", "heap", "vm", VMSetup, "jit", "ir", "workloads",
	"harness", "oracle", "server", Other, RuntimeGC,
}

// LayerOf returns the layer of a function, or "" when its package is not
// mapped. mainLayer is the layer of package main in the profiled binary.
func LayerOf(fn, mainLayer string) string {
	pkg := Package(fn)
	if pkg == "main" {
		return mainLayer
	}
	if l, ok := layerTable[pkg]; ok {
		return l
	}
	for i := len(pkg) - 1; i > 0; i-- {
		if pkg[i] == '/' {
			if l, ok := layerTable[pkg[:i+1]]; ok {
				return l
			}
		}
	}
	return ""
}

// Fold sums the profile's CPU seconds by layer. A sample with vm.New on
// its stack goes to VMSetup; otherwise it goes to the layer of the
// nearest mapped frame from the leaf, so runtime work such as malloc and
// memclr is charged to the strider code that asked for it; a stack with
// no mapped frame goes to RuntimeGC.
func Fold(p *Profile, mainLayer string) (map[string]float64, error) {
	idx, err := p.CPUIndex()
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range p.Samples {
		if idx >= len(s.Values) {
			continue
		}
		out[layerOfStack(p.Stack(s), mainLayer)] += float64(s.Values[idx]) / 1e9
	}
	return out, nil
}

func layerOfStack(stack []string, mainLayer string) string {
	for _, fn := range stack {
		if fn == "strider/internal/vm.New" {
			return VMSetup
		}
	}
	for _, fn := range stack {
		if l := LayerOf(fn, mainLayer); l != "" {
			return l
		}
	}
	return RuntimeGC
}
