package interp

import (
	"errors"
	"testing"

	"strider/internal/classfile"
	"strider/internal/ir"
	"strider/internal/value"
)

// buildCountdown builds down(n) = n <= 0 ? 0 : down(n-1) + 1, which runs
// n+1 frames deep.
func buildCountdown() *ir.Program {
	p := ir.NewProgram(emptyUniverse())
	b := ir.NewBuilder(p, nil, "down", value.KindInt, value.KindInt)
	n := b.Param(0)
	zero, one := b.ConstInt(0), b.ConstInt(1)
	base := b.NewLabel()
	b.Br(value.KindInt, ir.CondLE, n, zero, base)
	sub := b.Call(b.Self(), b.Arith(ir.OpSub, value.KindInt, n, one))
	b.Return(b.Arith(ir.OpAdd, value.KindInt, sub, one))
	b.Bind(base)
	b.Return(zero)
	p.Entry = b.Finish()
	return p
}

// TestFrameStackGrowsToMaxFrames pins the recursion bound across the
// frame stack's growth from its initial capacity: a call chain exactly
// MaxFrames deep completes, one frame deeper overflows, and the engine
// keeps running correctly on its grown stack afterwards.
func TestFrameStackGrowsToMaxFrames(t *testing.T) {
	p := buildCountdown()
	e := newEngine(p, interpOnly{})
	if c := cap(e.frames); c != initialFrames {
		t.Fatalf("new engine has %d frames, want %d", c, initialFrames)
	}
	// The first run grows the stack four times, the second none; both
	// must retire the same instructions, so no caller resumes from a
	// stale copy of its frame.
	var retired [2]uint64
	for i := range retired {
		before := e.S.Instructions
		got, err := e.Run(p.Entry, []value.Value{value.Int(MaxFrames - 1)})
		if err != nil {
			t.Fatalf("%d frames deep: %v", MaxFrames, err)
		}
		if got.Int() != MaxFrames-1 {
			t.Fatalf("down(%d) = %v", MaxFrames-1, got)
		}
		if c := cap(e.frames); c < MaxFrames {
			t.Fatalf("stack capacity %d after a %d-deep run", c, MaxFrames)
		}
		retired[i] = e.S.Instructions - before
	}
	if retired[0] != retired[1] {
		t.Fatalf("growing run retired %d instructions, grown run %d", retired[0], retired[1])
	}
	_, err := e.Run(p.Entry, []value.Value{value.Int(MaxFrames)})
	if !errors.Is(err, ErrStackOverflow) {
		t.Fatalf("%d frames deep: err = %v, want stack overflow", MaxFrames+1, err)
	}
	var re *RuntimeError
	if !errors.As(err, &re) || re.Method != p.Entry {
		t.Fatalf("overflow trap %v does not name the recursing method", err)
	}
	if got, err := e.Run(p.Entry, []value.Value{value.Int(10)}); err != nil || got.Int() != 10 {
		t.Fatalf("run after overflow: %v, %v", got, err)
	}
}

// TestTrapJustAfterGrowth throws a null dereference in the first frame
// the stack grows for: the trap must name that frame's method and the
// faulting instruction, not a stale copy from before the move.
func TestTrapJustAfterGrowth(t *testing.T) {
	u := emptyUniverse()
	box := u.MustDefineClass("Box", nil, classfile.FieldSpec{Name: "v", Kind: value.KindInt})
	p := ir.NewProgram(u)

	leaf := ir.NewBuilder(p, nil, "leaf", value.KindInt)
	leaf.Return(leaf.GetField(leaf.ConstNull(), box.FieldByName("v")))
	leafM := leaf.Finish()
	trapPC := -1
	for pc, in := range leafM.Code {
		if in.Op == ir.OpGetField {
			trapPC = pc
		}
	}

	// dive(n) calls leaf() at depth initialFrames+1, so leaf runs in the
	// frame whose push grows the stack.
	b := ir.NewBuilder(p, nil, "dive", value.KindInt, value.KindInt)
	n := b.Param(0)
	one := b.ConstInt(1)
	base := b.NewLabel()
	b.Br(value.KindInt, ir.CondLE, n, one, base)
	b.Return(b.Call(b.Self(), b.Arith(ir.OpSub, value.KindInt, n, one)))
	b.Bind(base)
	b.Return(b.Call(leafM))
	p.Entry = b.Finish()

	e := newEngine(p, interpOnly{})
	_, err := e.Run(p.Entry, []value.Value{value.Int(initialFrames)})
	if cap(e.frames) == initialFrames {
		t.Fatal("the stack did not grow; the test no longer traps after a growth")
	}
	var re *RuntimeError
	if !errors.As(err, &re) || !errors.Is(err, ErrNullDeref) {
		t.Fatalf("err = %v, want a null-dereference RuntimeError", err)
	}
	if re.Method != leafM || re.PC != trapPC {
		t.Fatalf("trap at %s pc %d, want %s pc %d", re.Method.QName(), re.PC, leafM.QName(), trapPC)
	}
	if len(e.frames) != initialFrames+1 {
		t.Fatalf("%d frames live at the trap, want %d", len(e.frames), initialFrames+1)
	}
}
