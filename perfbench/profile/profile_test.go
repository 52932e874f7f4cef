package profile

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"
)

// enc is a minimal protobuf writer for building profiles by hand.
type enc struct{ b []byte }

func (e *enc) varint(v uint64) {
	for v >= 0x80 {
		e.b = append(e.b, byte(v)|0x80)
		v >>= 7
	}
	e.b = append(e.b, byte(v))
}

func (e *enc) num(tag int, v uint64) {
	e.varint(uint64(tag)<<3 | 0)
	e.varint(v)
}

func (e *enc) bytes(tag int, b []byte) {
	e.varint(uint64(tag)<<3 | 2)
	e.varint(uint64(len(b)))
	e.b = append(e.b, b...)
}

func (e *enc) msg(tag int, build func(*enc)) {
	var m enc
	build(&m)
	e.bytes(tag, m.b)
}

func packed(vs ...uint64) []byte {
	var e enc
	for _, v := range vs {
		e.varint(v)
	}
	return e.b
}

// handProfile builds a gzip'd CPU profile. Each stack lists function
// names leaf first; a name containing "+" is one location holding an
// inlined frame followed by its caller.
func handProfile(t *testing.T, stacks [][]string, nanos []int64) []byte {
	t.Helper()
	strs := []string{""}
	strIdx := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	funcs := map[string]uint64{}
	var p enc
	for _, vt := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		p.msg(1, func(m *enc) {
			m.num(1, strIdx(vt[0]))
			m.num(2, strIdx(vt[1]))
		})
	}
	var locs enc
	nextLoc := uint64(1)
	for i, stack := range stacks {
		var ids []uint64
		for _, frame := range stack {
			names := splitPlus(frame)
			id := nextLoc
			nextLoc++
			locs.msg(4, func(m *enc) {
				m.num(1, id)
				for _, n := range names {
					fid, ok := funcs[n]
					if !ok {
						fid = uint64(len(funcs) + 1)
						funcs[n] = fid
					}
					m.msg(4, func(l *enc) { l.num(1, fid); l.num(2, 10) })
				}
			})
			ids = append(ids, id)
		}
		ns := nanos[i]
		if i%2 == 0 {
			p.msg(2, func(m *enc) {
				m.bytes(1, packed(ids...))
				m.bytes(2, packed(1, uint64(ns)))
			})
		} else { // unpacked encoding, which readers must also accept
			p.msg(2, func(m *enc) {
				for _, id := range ids {
					m.num(1, id)
				}
				m.num(2, 1)
				m.num(2, uint64(ns))
			})
		}
	}
	p.b = append(p.b, locs.b...)
	for name, id := range funcs {
		p.msg(5, func(m *enc) { m.num(1, id); m.num(2, strIdx(name)) })
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func splitPlus(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '+' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}

func TestFoldHandBuiltProfile(t *testing.T) {
	stacks := [][]string{
		// memsim leaf reached through an inlined interp frame.
		{"strider/internal/memsim.(*Memory).LoadAt+strider/internal/interp.(*Engine).step", "strider/internal/vm.(*VM).Run", "main.main"},
		// malloc is charged to the nearest strider frame.
		{"runtime.mallocgc", "runtime.newobject", "strider/internal/heap.(*Heap).Alloc", "strider/internal/interp.(*Engine).step"},
		// everything under vm.New is set-up, even heap work.
		{"runtime.memclrNoHeapPointers", "strider/internal/heap.New", "strider/internal/vm.New", "strider/internal/oracle.runCell"},
		// no strider frame at all.
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		// the standard library's HTTP and JSON are the server layer.
		{"encoding/json.(*encodeState).marshal", "strider/internal/server.(*Server).writeResponse", "net/http.(*conn).serve"},
		{"syscall.Syscall", "net/http.(*conn).readRequest", "net/http.(*conn).serve"},
		// jit is a package tree; package main takes the caller's layer.
		{"strider/internal/core/inspect.(*Inspector).step", "strider/internal/core/jit.Compile"},
		{"fmt.Fprintf", "main.run"},
	}
	nanos := []int64{4e9, 2e9, 3e9, 1e9, 5e8, 5e8, 7e8, 3e8}
	p, err := Parse(bytes.NewReader(handProfile(t, stacks, nanos)))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Samples) != len(stacks) {
		t.Fatalf("decoded %d samples, want %d", len(p.Samples), len(stacks))
	}
	if got := p.Stack(p.Samples[0]); len(got) != 4 || got[1] != "strider/internal/interp.(*Engine).step" {
		t.Fatalf("inlined frames not expanded leaf first: %v", got)
	}
	got, err := Fold(p, "harness")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"memsim": 4, "heap": 2, VMSetup: 3, RuntimeGC: 1, "server": 1, "jit": 0.7, "harness": 0.3,
	}
	for layer, w := range want {
		if math.Abs(got[layer]-w) > 1e-9 {
			t.Errorf("%s: got %.3f s, want %.3f s", layer, got[layer], w)
		}
	}
	for layer := range got {
		if _, ok := want[layer]; !ok {
			t.Errorf("unexpected layer %q: %.3f s", layer, got[layer])
		}
	}
}

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"strider/internal/ir.(*Builder).Finish":        "ir",
		"strider/internal/interp.run":                  "interp",
		"strider/internal/core/prefetch.Insert":        "jit",
		"strider/internal/telemetry.(*Trace).add":      Other,
		"strider/perfbench/driver.verifyBlock":         Other,
		"runtime.mallocgc":                             "",
		"sort.Slice":                                   "",
		"strider/internal/progfuzz.Program.func1":      "workloads",
		"strider/internal/memsim.(*cache).lookup[...]": "memsim",
	}
	for fn, want := range cases {
		if got := LayerOf(fn, "harness"); got != want {
			t.Errorf("LayerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseRejectsTruncated(t *testing.T) {
	data := handProfile(t, [][]string{{"main.main"}}, []int64{1})
	var raw bytes.Buffer
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.ReadFrom(zr); err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(bytes.NewReader(raw.Bytes()[:raw.Len()-3])); err == nil {
		t.Fatal("truncated profile parsed without error")
	}
}
