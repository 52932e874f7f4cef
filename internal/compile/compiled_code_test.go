// Tests of the interpreter running JIT-compiled method bodies: the
// dispatcher below marks every method compiled (interp.Code.Compiled), so
// each program runs with the compiled-code accounting the JIT tier
// charges. Every program is built by hand with ir.Builder and pins its
// result or its trap: the branch conditions, kind-mismatched unary ops,
// the bounds message, heap exhaustion, raw op shapes the builder never
// emits, and a recorded speculative load. Traps the interpreter's own
// tests already pin (division by zero, stack overflow, unknown virtual
// methods) are not repeated here.
//
// The directory holds tests only; it builds no package.
package compile_test

import (
	"errors"
	"strings"
	"testing"

	"strider/internal/arch"
	"strider/internal/classfile"
	"strider/internal/heap"
	"strider/internal/interp"
	"strider/internal/ir"
	"strider/internal/memsim"
	"strider/internal/telemetry"
	"strider/internal/value"
)

// compiledDisp marks every method compiled.
type compiledDisp struct{}

func (compiledDisp) Invoke(m *ir.Method, args []value.Value) *interp.Code {
	return &interp.Code{Instrs: m.Code, NumRegs: m.NumRegs, Compiled: true}
}

func newEngine(p *ir.Program) *interp.Engine {
	machine := arch.Pentium4()
	return interp.New(p, heap.New(1<<20, p.Universe), memsim.New(machine), compiledDisp{}, machine)
}

// run executes a freshly built program and checks the accounting every
// run must keep: all retired instructions are compiled ones, and a run
// that retires instructions charges cycles for them.
func run(t *testing.T, build func() *ir.Program) (value.Value, interp.Stats, error) {
	t.Helper()
	p := build()
	e := newEngine(p)
	r, err := e.Run(p.Entry, nil)
	if e.S.CompiledInstructions != e.S.Instructions {
		t.Errorf("compiled code retired %d of %d instructions", e.S.CompiledInstructions, e.S.Instructions)
	}
	if e.S.Instructions > 0 && e.S.CompiledCycles == 0 {
		t.Errorf("%d instructions retired without compiled cycles", e.S.Instructions)
	}
	return r, e.S, err
}

// wantInt fails the test unless the run returned the int want.
func wantInt(t *testing.T, got value.Value, err error, want int32) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if got.K != value.KindInt || got.Int() != want {
		t.Fatalf("result = %v, want int %d", got, want)
	}
}

// --- branches and unary ops ---

func TestGenericBranches(t *testing.T) {
	r, _, err := run(t, func() *ir.Program {
		p := ir.NewProgram(classfile.NewUniverse())
		b := ir.NewBuilder(p, nil, "main", value.KindInt)
		// Long and double comparisons.
		x := b.ConstLong(9)
		y := b.ConstLong(10)
		d := b.ConstDouble(1.5)
		e := b.ConstDouble(2.5)
		la := b.NewLabel()
		lb := b.NewLabel()
		miss := b.NewLabel()
		b.Br(value.KindLong, ir.CondLT, x, y, la)
		b.Goto(miss)
		b.Bind(la)
		b.Br(value.KindDouble, ir.CondGT, d, e, miss)
		b.Goto(lb)
		b.Bind(lb)
		one := b.ConstInt(1)
		b.Return(one)
		b.Bind(miss)
		zero := b.ConstInt(0)
		b.Return(zero)
		p.Entry = b.Finish()
		return p
	})
	wantInt(t, r, err, 1)
}

// TestIntBranchKinds drives every int condition down both its taken and
// fall-through edges.
func TestIntBranchKinds(t *testing.T) {
	// acc gains 2 if cond(3, 5) holds and 1 if not, then 4 unless
	// cond(3, 3) holds.
	want := map[ir.Cond]int32{
		ir.CondEQ: 1 + 0, ir.CondNE: 2 + 4, ir.CondLT: 2 + 4,
		ir.CondLE: 2 + 0, ir.CondGT: 1 + 4, ir.CondGE: 1 + 0,
	}
	for _, cond := range []ir.Cond{ir.CondEQ, ir.CondNE, ir.CondLT, ir.CondLE, ir.CondGT, ir.CondGE} {
		t.Run(cond.String(), func(t *testing.T) {
			r, _, err := run(t, func() *ir.Program {
				p := ir.NewProgram(classfile.NewUniverse())
				b := ir.NewBuilder(p, nil, "main", value.KindInt)
				x := b.ConstInt(3)
				y := b.ConstInt(5)
				acc := b.ConstInt(0)
				taken := b.NewLabel()
				after := b.NewLabel()
				b.Br(value.KindInt, cond, x, y, taken)
				b.IncInt(acc, 1)
				b.Goto(after)
				b.Bind(taken)
				b.IncInt(acc, 2)
				b.Bind(after)
				end := b.NewLabel()
				b.Br(value.KindInt, cond, x, x, end)
				b.IncInt(acc, 4)
				b.Bind(end)
				b.Return(acc)
				p.Entry = b.Finish()
				return p
			})
			wantInt(t, r, err, want[cond])
		})
	}
}

func TestUnaryErrorPaths(t *testing.T) {
	for name, emit := range map[string]func(b *ir.Builder, null ir.Reg){
		"neg-of-ref-kind": func(b *ir.Builder, null ir.Reg) { b.Neg(value.KindRef, null) },
		"conv-of-ref":     func(b *ir.Builder, null ir.Reg) { b.Conv(value.KindLong, null) },
	} {
		t.Run(name, func(t *testing.T) {
			_, _, err := run(t, func() *ir.Program {
				p := ir.NewProgram(classfile.NewUniverse())
				b := ir.NewBuilder(p, nil, "main", value.KindInt)
				null := b.ConstNull()
				emit(b, null)
				zero := b.ConstInt(0)
				b.Return(zero)
				p.Entry = b.Finish()
				return p
			})
			if err == nil {
				t.Fatal("kind-mismatched unary op did not trap")
			}
		})
	}
}

// --- heap traps ---

func TestBoundsMessageCarriesIndexAndLength(t *testing.T) {
	_, _, err := run(t, func() *ir.Program {
		p := ir.NewProgram(classfile.NewUniverse())
		b := ir.NewBuilder(p, nil, "main", value.KindInt)
		n := b.ConstInt(4)
		arr := b.NewArray(value.KindInt, n)
		v := b.ArrayLoad(value.KindInt, arr, n)
		b.Return(v)
		p.Entry = b.Finish()
		return p
	})
	if !errors.Is(err, interp.ErrBounds) {
		t.Fatalf("err = %v, want ErrBounds", err)
	}
	if !strings.Contains(err.Error(), "4 of 4") {
		t.Errorf("bounds message %q does not carry index and length", err)
	}
}

// TestOutOfMemory exhausts the heap with live objects so the allocation
// itself fails: the collector finds everything reachable.
func TestOutOfMemory(t *testing.T) {
	_, _, err := run(t, func() *ir.Program {
		u := classfile.NewUniverse()
		cls := u.MustDefineClass("Fat", nil,
			classfile.FieldSpec{Name: "a", Kind: value.KindLong},
			classfile.FieldSpec{Name: "b", Kind: value.KindLong},
			classfile.FieldSpec{Name: "c", Kind: value.KindLong},
			classfile.FieldSpec{Name: "d", Kind: value.KindLong},
		)
		p := ir.NewProgram(u)
		b := ir.NewBuilder(p, nil, "main", value.KindInt)
		n := b.ConstInt(1 << 16)
		arr := b.NewArray(value.KindRef, n) // keeps every object live
		i := b.ConstInt(0)
		cond := b.NewLabel()
		body := b.NewLabel()
		b.Goto(cond)
		b.Bind(body)
		obj := b.New(cls)
		b.ArrayStore(value.KindRef, arr, i, obj)
		b.IncInt(i, 1)
		b.Bind(cond)
		b.Br(value.KindInt, ir.CondLT, i, n, body)
		b.Return(i)
		p.Entry = b.Finish()
		return p
	})
	if err == nil {
		t.Fatal("live-heap churn did not exhaust the 1 MiB heap")
	}
}

// --- raw op shapes the builder never emits ---

// patchedProg reserves a placeholder instruction (a Sink) and overwrites
// it with a raw shape the builder never emits: unknown ops and conditions
// and the JIT-spliced prefetch forms. Unpatched, the program returns 9.
func patchedProg(patch func(m *ir.Method, at int, scratch []ir.Reg)) func() *ir.Program {
	return func() *ir.Program {
		u := classfile.NewUniverse()
		cls := u.MustDefineClass("P", nil,
			classfile.FieldSpec{Name: "x", Kind: value.KindInt},
		)
		fX := cls.FieldByName("x")
		p := ir.NewProgram(u)
		b := ir.NewBuilder(p, nil, "main", value.KindInt)
		obj := b.New(cls)
		val := b.ConstInt(9)
		b.PutField(obj, fX, val)
		idx := b.ConstInt(1)
		spare := b.NewReg()
		b.Sink(val) // placeholder, overwritten by patch (index 4)
		got := b.GetField(obj, fX)
		b.Return(got)
		m := b.Finish()
		p.Entry = m
		patch(m, 4, []ir.Reg{obj, val, idx, spare})
		return p
	}
}

func TestNopDispatch(t *testing.T) {
	r, _, err := run(t, patchedProg(func(m *ir.Method, at int, s []ir.Reg) {
		m.Code[at] = ir.Instr{Op: ir.OpNop}
	}))
	wantInt(t, r, err, 9)
}

func TestPatchedOpEdges(t *testing.T) {
	cases := map[string]struct {
		patch   func(m *ir.Method, at int, s []ir.Reg)
		wantErr string // substring of the trap cause; "" = must succeed
	}{
		"unknown-op": {
			patch: func(m *ir.Method, at int, s []ir.Reg) {
				m.Code[at] = ir.Instr{Op: ir.Op(250)}
			},
			wantErr: "unimplemented op",
		},
		"unknown-int-cond": {
			patch: func(m *ir.Method, at int, s []ir.Reg) {
				m.Code[at] = ir.Instr{Op: ir.OpBr, Kind: value.KindInt,
					Cond: ir.Cond(250), A: s[1], B: s[1], Target: at + 1}
			},
			wantErr: "operand kind mismatch",
		},
		"ref-cond-lt": {
			patch: func(m *ir.Method, at int, s []ir.Reg) {
				m.Code[at] = ir.Instr{Op: ir.OpBr, Kind: value.KindRef,
					Cond: ir.CondLT, A: s[0], B: s[0], Target: at + 1}
			},
		},
		"prefetch-live": {
			patch: func(m *ir.Method, at int, s []ir.Reg) {
				m.Code[at] = ir.Instr{Op: ir.OpPrefetch,
					Addr: ir.AddrExpr{Base: s[0], Index: ir.NoReg}, Guarded: true}
			},
		},
		"prefetch-dead-base": {
			patch: func(m *ir.Method, at int, s []ir.Reg) {
				m.Code[at] = ir.Instr{Op: ir.OpPrefetch,
					Addr: ir.AddrExpr{Base: s[1], Index: ir.NoReg}}
			},
		},
		"specload-live": {
			patch: func(m *ir.Method, at int, s []ir.Reg) {
				m.Code[at] = ir.Instr{Op: ir.OpSpecLoad, Dst: s[3],
					Addr: ir.AddrExpr{Base: s[0], Index: s[2], Scale: 4}}
			},
		},
		"specload-dead-base": {
			patch: func(m *ir.Method, at int, s []ir.Reg) {
				m.Code[at] = ir.Instr{Op: ir.OpSpecLoad, Dst: s[3],
					Addr: ir.AddrExpr{Base: s[1], Index: ir.NoReg}}
			},
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			r, _, err := run(t, patchedProg(tc.patch))
			if tc.wantErr == "" {
				wantInt(t, r, err, 9)
				return
			}
			var rt *interp.RuntimeError
			if !errors.As(err, &rt) || rt.PC != 4 || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want a trap at pc 4 containing %q", err, tc.wantErr)
			}
		})
	}
}

// --- site recorder ---

// siteCounter counts Site events flushed by the engine.
type siteCounter struct {
	telemetry.Nop
	sites int
}

func (s *siteCounter) Site(telemetry.SiteEvent) { s.sites++ }

// TestRecordedPrefetches runs a JIT-shaped speculative load carrying a
// site id with a recorder installed: the site must be flushed, and the
// run must match one without a recorder, which observes and never charges.
func TestRecordedPrefetches(t *testing.T) {
	build := patchedProg(func(m *ir.Method, at int, s []ir.Reg) {
		m.Code[at] = ir.Instr{Op: ir.OpSpecLoad, Dst: s[3],
			Addr: ir.AddrExpr{Base: s[0], Index: ir.NoReg}, Site: 1}
	})
	rPlain, sPlain, err := run(t, build)
	wantInt(t, rPlain, err, 9)

	p := build()
	e := newEngine(p)
	rec := &siteCounter{}
	e.Rec = rec
	r, err := e.Run(p.Entry, nil)
	wantInt(t, r, err, 9)
	e.FlushSites()
	if rec.sites == 0 {
		t.Error("no site events flushed for a speculative load with a site id")
	}
	if e.S != sPlain {
		t.Errorf("stats diverged under a recorder:\n with    %+v\n without %+v", e.S, sPlain)
	}
}
