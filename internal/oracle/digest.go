package oracle

import (
	"strider/internal/classfile"
	"strider/internal/heap"
	"strider/internal/value"
)

// FNV-1a (64-bit) parameters for all oracle digests.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fold64 folds an 8-byte value into an FNV-1a accumulator.
func fold64(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (x >> (8 * i)) & 0xFF
		h *= fnvPrime
	}
	return h
}

// foldLoad folds one (address, size) demand-load event.
func foldLoad(h uint64, addr, size uint32) uint64 {
	return fold64(fold64(h, uint64(addr)), uint64(size))
}

// loadAccum accumulates the ordered demand-load address stream. The
// reference interpreter and the differ's load observer both use it, so their
// digests are comparable by construction.
type loadAccum struct {
	digest uint64
	count  uint64
}

func (l *loadAccum) record(addr, size uint32) {
	if l.count == 0 {
		l.digest = fnvOffset
	}
	l.digest = foldLoad(l.digest, addr, size)
	l.count++
}

func (l *loadAccum) reset() { *l = loadAccum{} }

// RawHeapDigest digests the raw bytes of the allocated heap region
// [base, top). Two runs with identical allocation, GC, and store activity
// produce identical digests; any stray write — a prefetch that mutated
// memory, an inspection store that escaped its hash table — changes it.
func RawHeapDigest(h *heap.Heap) uint64 {
	d := fnvOffset
	top := h.Top()
	d = fold64(d, uint64(top))
	for addr := uint32(classfile.HeaderBytes); addr < top; addr += 4 {
		d = fold64(d, uint64(h.Load4(addr)))
	}
	return d
}

// StaticsDigest folds every static field's kind and payload in
// declaration order.
func StaticsDigest(u *classfile.Universe) uint64 {
	d := fnvOffset
	u.EachStatic(func(f *classfile.Field, v value.Value) {
		d = fold64(d, uint64(f.Kind))
		d = fold64(d, v.B)
	})
	return d
}

// GraphDigest digests the live object graph reachable from the statics
// (in declaration order) and any extra roots (typically the run result).
// References are canonicalised to first-visit ordinals, so the digest is
// independent of heap addresses: it is stable across collector modes and
// placement changes, and catches semantic divergence that raw byte
// comparison would conflate with layout differences.
func GraphDigest(h *heap.Heap, u *classfile.Universe, extra ...value.Value) uint64 {
	d := fnvOffset
	ids := make(map[uint32]uint64)
	var queue []uint32
	canon := func(ref uint32) uint64 {
		if ref == 0 {
			return 0
		}
		id, ok := ids[ref]
		if !ok {
			id = uint64(len(ids) + 1)
			ids[ref] = id
			queue = append(queue, ref)
		}
		return id
	}
	foldVal := func(k value.Kind, b uint64) {
		d = fold64(d, uint64(k))
		if k == value.KindRef {
			d = fold64(d, canon(uint32(b)))
		} else {
			d = fold64(d, b)
		}
	}
	u.EachStatic(func(f *classfile.Field, v value.Value) { foldVal(f.Kind, v.B) })
	for _, v := range extra {
		foldVal(v.K, v.B)
	}
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		if !h.Valid(obj, classfile.HeaderBytes) {
			d = fold64(d, 0xDEAD)
			continue
		}
		c := h.ClassOf(obj)
		if c == nil {
			d = fold64(d, 0xDEAD)
			continue
		}
		d = foldString(d, c.Name)
		if c.IsArray {
			n := h.ArrayLen(obj)
			d = fold64(d, uint64(n))
			for i := uint32(0); i < n; i++ {
				ea := h.ElemAddr(obj, i)
				switch {
				case c.Elem == value.KindRef:
					d = fold64(d, canon(h.Load4(ea)))
				case c.ElemSize == 8:
					d = fold64(d, h.Load8(ea))
				default:
					d = fold64(d, uint64(h.Load4(ea)))
				}
			}
			continue
		}
		for _, f := range c.Fields {
			switch {
			case f.Kind == value.KindRef:
				d = fold64(d, canon(h.Load4(obj+f.Offset)))
			case f.Kind.Size() == 8:
				d = fold64(d, h.Load8(obj+f.Offset))
			default:
				d = fold64(d, uint64(h.Load4(obj+f.Offset)))
			}
		}
	}
	return d
}

func foldString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}
