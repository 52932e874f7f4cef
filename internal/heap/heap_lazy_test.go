package heap

import (
	"math/rand"
	"testing"

	"strider/internal/classfile"
	"strider/internal/value"
)

// lockstep drives a lazily grown heap and one pre-grown to its full size
// through the same operations. Each heap has its own root slots, since a
// collection updates them in place.
type lockstep struct {
	t           *testing.T
	lazy, eager *Heap
	lazyRoots   []value.Value
	eagerRoots  []value.Value
}

func newLockstep(t *testing.T, size uint32, mode GCMode) (*lockstep, *classfile.Class) {
	t.Helper()
	u, node := testUniverse(t)
	l := &lockstep{t: t, lazy: New(size, u), eager: New(size, u)}
	l.eager.ensure(uint64(l.eager.Size()))
	if len(l.lazy.mem) != initialPhys || len(l.eager.mem) != int(size) {
		t.Fatalf("backings %d and %d bytes, want %d and %d",
			len(l.lazy.mem), len(l.eager.mem), initialPhys, size)
	}
	l.lazy.SetGCMode(mode)
	l.eager.SetGCMode(mode)
	return l, node
}

// do applies op to both heaps and requires the same address from each.
func (l *lockstep) do(op func(h *Heap) (uint32, error)) (uint32, error) {
	l.t.Helper()
	a, errA := op(l.lazy)
	b, errB := op(l.eager)
	if a != b || (errA == nil) != (errB == nil) {
		l.t.Fatalf("lazy heap returned (%#x, %v), pre-grown heap (%#x, %v)", a, errA, b, errB)
	}
	return a, errA
}

func (l *lockstep) collect() {
	l.t.Helper()
	liveA := l.lazy.Collect(rootsOf(l.lazyRoots))
	liveB := l.eager.Collect(rootsOf(l.eagerRoots))
	if liveA != liveB {
		l.t.Fatalf("live bytes %d (lazy) vs %d (pre-grown)", liveA, liveB)
	}
	l.compare()
}

func rootsOf(rs []value.Value) RootSet {
	return func(visit func(*value.Value)) {
		for i := range rs {
			visit(&rs[i])
		}
	}
}

// compare checks every observable of the two heaps: each word address up
// to the logical size, the bump pointer, the statistics and the roots.
func (l *lockstep) compare() {
	l.t.Helper()
	if a, b := l.lazy.Top(), l.eager.Top(); a != b {
		l.t.Fatalf("Top %#x (lazy) vs %#x (pre-grown)", a, b)
	}
	if a, b := l.lazy.Stats(), l.eager.Stats(); a != b {
		l.t.Fatalf("Stats %+v (lazy) vs %+v (pre-grown)", a, b)
	}
	for addr := uint32(0); addr+4 <= l.lazy.Size(); addr++ {
		if a, b := l.lazy.Load4(addr), l.eager.Load4(addr); a != b {
			l.t.Fatalf("Load4(%#x) = %#x (lazy) vs %#x (pre-grown)", addr, a, b)
		}
	}
	for i := range l.lazyRoots {
		if l.lazyRoots[i] != l.eagerRoots[i] {
			l.t.Fatalf("root %d: %v (lazy) vs %v (pre-grown)", i, l.lazyRoots[i], l.eagerRoots[i])
		}
	}
}

// TestLazyGrowthMatchesPreGrown runs an allocation script that fills a
// 1 MiB heap several times over, so the lazy backing doubles from 64 KiB
// to the full size and the collector runs at every backing size, and
// requires it to be indistinguishable from a heap whose backing was
// materialized up front.
func TestLazyGrowthMatchesPreGrown(t *testing.T) {
	for _, mode := range []GCMode{GCSlidingCompact, GCMarkSweepFreeList} {
		l, node := newLockstep(t, 1<<20, mode)
		fVal, fNext := node.FieldByName("val"), node.FieldByName("next")
		rng := rand.New(rand.NewSource(int64(mode) + 1))
		l.lazyRoots = make([]value.Value, 64)
		l.eagerRoots = make([]value.Value, 64)
		var sizes []int
		for op := 0; op < 6000; op++ {
			var alloc func(h *Heap) (uint32, error)
			switch rng.Intn(3) {
			case 0:
				prev := rng.Intn(len(l.lazyRoots))
				val := rng.Uint32()
				alloc = func(h *Heap) (uint32, error) {
					a, err := h.AllocObject(node)
					if err == nil {
						h.Store4(a+fVal.Offset, val)
						h.Store4(a+fNext.Offset, l.rootsFor(h)[prev].Ref())
					}
					return a, err
				}
			case 1:
				n := uint32(rng.Intn(2048))
				alloc = func(h *Heap) (uint32, error) { return h.AllocArray(value.KindInt, n) }
			default:
				n := uint32(rng.Intn(32))
				alloc = func(h *Heap) (uint32, error) { return h.AllocArray(value.KindRef, n) }
			}
			a, err := l.do(alloc)
			if err == ErrOutOfMemory {
				l.collect()
				if a, err = l.do(alloc); err != nil {
					t.Fatalf("mode %d op %d: allocation fails after a collection: %v", mode, op, err)
				}
			} else if err != nil {
				t.Fatal(err)
			}
			if slot := rng.Intn(2 * len(l.lazyRoots)); slot < len(l.lazyRoots) {
				l.lazyRoots[slot] = value.Ref(a)
				l.eagerRoots[slot] = value.Ref(a)
			}
			if op%1500 == 1499 {
				l.collect()
			}
			if n := len(l.lazy.mem); len(sizes) == 0 || sizes[len(sizes)-1] != n {
				sizes = append(sizes, n)
			}
		}
		l.collect()
		if len(sizes) < 4 || sizes[len(sizes)-1] != 1<<20 {
			t.Fatalf("mode %d: backing sizes %v, want several doublings up to 1 MiB", mode, sizes)
		}
		if l.lazy.Stats().Collections < 4 {
			t.Fatalf("mode %d: only %d collections", mode, l.lazy.Stats().Collections)
		}
	}
}

func (l *lockstep) rootsFor(h *Heap) []value.Value {
	if h == l.lazy {
		return l.lazyRoots
	}
	return l.eagerRoots
}

// TestCollectRightAfterGrowth pins the lazily sized mark bitmap: a
// collection that is the first operation after the backing grew must
// mark objects in the grown region. It also covers a collection on a
// heap that has allocated nothing.
func TestCollectRightAfterGrowth(t *testing.T) {
	for _, mode := range []GCMode{GCSlidingCompact, GCMarkSweepFreeList} {
		l, node := newLockstep(t, 1<<20, mode)
		l.collect()
		l.lazyRoots = make([]value.Value, 2)
		l.eagerRoots = make([]value.Value, 2)
		// Garbage below, then an object past the initial backing.
		if _, err := l.do(func(h *Heap) (uint32, error) { return h.AllocArray(value.KindInt, initialPhys/4) }); err != nil {
			t.Fatal(err)
		}
		grown := len(l.lazy.mem)
		a, err := l.do(func(h *Heap) (uint32, error) { return h.AllocObject(node) })
		if err != nil {
			t.Fatal(err)
		}
		if a < initialPhys || grown <= initialPhys {
			t.Fatalf("object at %#x in a %d-byte backing; the script no longer grows the heap", a, grown)
		}
		l.lazyRoots[0], l.eagerRoots[0] = value.Ref(a), value.Ref(a)
		l.collect()
		if got := l.lazy.Stats().LiveAfterLast; got != uint64(node.InstanceSize) {
			t.Fatalf("mode %d: %d live bytes, want the one rooted object (%d)", mode, got, node.InstanceSize)
		}
	}
}
