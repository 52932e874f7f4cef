// Property and invariant tests for the memory simulator: LRU replacement
// correctness against a shadow model, and counter conservation laws over
// fuzzed access streams on both evaluation machines.
package memsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"strider/internal/arch"
	"strider/internal/telemetry"
)

// TestLRUNeverEvictsMRU fills one set to capacity, touches a line to make
// it most recently used, then forces an eviction: the MRU line must
// survive and the least recently used line must be the victim.
func TestLRUNeverEvictsMRU(t *testing.T) {
	// 2 sets x 4 ways x 64-byte lines. Addresses addr(i) = i*2*64 all map
	// to set 0 with distinct tags.
	c := newCache(arch.CacheParams{SizeBytes: 512, LineBytes: 64, Assoc: 4})
	addr := func(i uint64) uint64 { return i * 2 * 64 }

	for i := uint64(0); i < 4; i++ {
		c.fill(addr(i), 0)
	}
	if c.lookup(addr(0)) == nil {
		t.Fatal("line 0 missing right after fill")
	}
	// LRU order is now 1, 2, 3, 0. The next conflicting fill must evict
	// line 1 and leave the MRU line 0 alone.
	c.fill(addr(4), 0)
	if c.probe(addr(0)) == nil {
		t.Error("MRU line was evicted")
	}
	if c.probe(addr(1)) != nil {
		t.Error("LRU line survived the eviction")
	}
	for _, i := range []uint64{2, 3, 4} {
		if c.probe(addr(i)) == nil {
			t.Errorf("line %d unexpectedly evicted", i)
		}
	}
}

// lruGeometries lists every cache and DTLB geometry of both evaluation
// machines (2-, 4-, 8-, 16- and 64-way), plus a direct-mapped one.
func lruGeometries() map[string]arch.CacheParams {
	g := map[string]arch.CacheParams{
		"direct-mapped": {SizeBytes: 1 << 10, LineBytes: 64, Assoc: 1},
	}
	for _, m := range arch.Machines() {
		g[m.Name+"/L1D"] = m.L1D
		g[m.Name+"/L2U"] = m.L2U
		g[m.Name+"/DTLB"] = dtlbGeometry(m)
	}
	return g
}

// TestLRUMatchesShadowModel fuzzes lookup/probe/fill/flush sequences on
// every geometry, with and without the tag index, against a plain
// recency-list model of every set. After each operation the set holds
// exactly the shadow's tags in the shadow's recency order, and every fill
// of a full set evicts the shadow's least recently used tag (a fill of a
// set with room evicts nothing).
func TestLRUMatchesShadowModel(t *testing.T) {
	for name, p := range lruGeometries() {
		for _, indexed := range []bool{false, true} {
			p := p
			t.Run(fmt.Sprintf("%s/%d-way/index=%v", name, p.Assoc, indexed), func(t *testing.T) {
				for _, seed := range []int64{1, 7, 42, 1234} {
					checkLRUShadow(t, p, indexed, seed)
				}
			})
		}
	}
}

func checkLRUShadow(t *testing.T, p arch.CacheParams, indexed bool, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := newCache(p)
	if indexed && c.idx == nil {
		c.idx = newTagMap(len(c.tags))
	} else if !indexed {
		c.idx = nil
	}
	sets := uint64(p.Sets())
	assoc := int(p.Assoc)
	// A few sets — the first, the last and one between — each with twice
	// its associativity in distinct lines, keep every set under conflict
	// pressure however many sets the geometry has.
	active := []uint64{0, sets / 2, sets - 1}
	lines := uint64(2*assoc + 2)

	// shadow[s] holds the tags of set s, most recent first.
	shadow := map[uint64][]uint64{}
	indexOf := func(s, tag uint64) int {
		for i, v := range shadow[s] {
			if v == tag {
				return i
			}
		}
		return -1
	}
	touch := func(s uint64, i int) {
		list := shadow[s]
		tag := list[i]
		copy(list[1:i+1], list[:i])
		list[0] = tag
	}
	// order walks set s's recency list from the head; the unfilled ways
	// must all come after the filled ones.
	order := func(s uint64) []uint64 {
		l := c.list(s)
		base := s * c.assoc
		var got []uint64
		empty := 0
		for w := l[assoc].next; int(w) != assoc; w = l[w].next {
			key := c.tags[base+uint64(w)]
			if key == 0 {
				empty++
				continue
			}
			if empty > 0 {
				t.Fatalf("seed %d set %d: filled way %d listed after an unfilled one", seed, s, w)
			}
			got = append(got, uint64(^key))
		}
		if len(got)+empty != assoc {
			t.Fatalf("seed %d set %d: list holds %d ways, want %d", seed, s, len(got)+empty, assoc)
		}
		return got
	}

	ops := 2000 + 100*assoc
	for op := 0; op < ops; op++ {
		set := active[rng.Intn(len(active))]
		tag := uint64(rng.Int63n(int64(lines)))*sets + set
		addr := tag << c.lineShift
		where := fmt.Sprintf("seed %d op %d set %d tag %d", seed, op, set, tag)
		i := indexOf(set, tag)
		switch r := rng.Intn(100); {
		case r == 0:
			c.flush()
			shadow = map[uint64][]uint64{}
			continue
		case r < 30:
			if got := c.probe(addr) != nil; got != (i >= 0) {
				t.Fatalf("%s: probe = %v, shadow says %v", where, got, i >= 0)
			}
		case r < 65:
			if got := c.lookup(addr) != nil; got != (i >= 0) {
				t.Fatalf("%s: lookup = %v, shadow says %v", where, got, i >= 0)
			}
			if i >= 0 {
				touch(set, i)
			}
		default:
			if i >= 0 {
				// The simulator never fills a resident line (every caller
				// looks up first), so model this case as a recency touch.
				c.lookup(addr)
				touch(set, i)
				break
			}
			before := append([]uint64(nil), shadow[set]...)
			c.fill(addr, uint64(op))
			if len(before) == assoc {
				lru := before[assoc-1]
				if c.probe(lru<<c.lineShift) != nil {
					t.Fatalf("%s: fill of a full set kept the LRU tag %d", where, lru)
				}
				before = before[:assoc-1]
			}
			shadow[set] = append([]uint64{tag}, before...)
		}
		// The real set and the shadow set agree exactly, in content and in
		// recency order.
		want := shadow[set]
		if got := order(set); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("%s: recency order %v, shadow %v", where, got, want)
		}
		base := set * c.assoc
		resident := 0
		for _, key := range c.tags[base : base+c.assoc] {
			if key != 0 {
				resident++
				if indexOf(set, uint64(^key)) < 0 {
					t.Fatalf("%s: set holds tag %d the shadow evicted", where, ^key)
				}
			}
		}
		if resident != len(want) {
			t.Fatalf("%s: set holds %d lines, shadow %d", where, resident, len(want))
		}
	}
}

// TestCounterConservation runs fuzzed access streams on both machines and
// checks the conservation laws that must hold between the counters, and
// between the counters and the per-call Prefetch outcomes.
func TestCounterConservation(t *testing.T) {
	for _, m := range arch.Machines() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			for _, seed := range []int64{3, 99, 2026} {
				mem := New(m)
				rng := rand.New(rand.NewSource(seed))
				var outcomes [4]uint64 // indexed by PrefetchOutcome
				now := uint64(0)
				addr := func() uint32 {
					if rng.Intn(2) == 0 {
						// Strided stream: realistic for the prefetcher paths.
						return uint32(rng.Intn(64))*4096 + uint32(rng.Intn(64))*64
					}
					return uint32(rng.Intn(1 << 22))
				}
				for op := 0; op < 20000; op++ {
					now += uint64(rng.Intn(10)) + 1
					switch rng.Intn(10) {
					case 0, 1, 2, 3, 4:
						mem.Load(addr(), 4, now)
					case 5, 6:
						mem.Store(addr(), 4, now)
					default:
						out := mem.Prefetch(addr(), rng.Intn(2) == 0, now)
						outcomes[out]++
					}
				}
				c := mem.C

				le := func(a, b uint64, name string) {
					if a > b {
						t.Errorf("seed %d: %s violated: %d > %d", seed, name, a, b)
					}
				}
				le(c.L1LoadMisses, c.Loads, "L1LoadMisses <= Loads")
				le(c.L2LoadMisses, c.L1LoadMisses, "L2LoadMisses <= L1LoadMisses")
				le(c.DTLBLoadMisses, c.Loads, "DTLBLoadMisses <= Loads")
				le(c.L1StoreMisses, c.Stores, "L1StoreMisses <= Stores")
				le(c.L2StoreMisses, c.L1StoreMisses, "L2StoreMisses <= L1StoreMisses")
				le(c.DTLBStoreMisses, c.Stores, "DTLBStoreMisses <= Stores")
				le(c.PrefetchesGuarded, c.PrefetchesIssued, "Guarded <= Issued")
				le(c.PrefetchesDropped+c.PrefetchesUseless, c.PrefetchesIssued,
					"Dropped+Useless <= Issued")

				// The per-call outcomes must tally exactly with the counters.
				total := outcomes[telemetry.PrefetchFetched] +
					outcomes[telemetry.PrefetchUseless] +
					outcomes[telemetry.PrefetchDroppedTLB] +
					outcomes[telemetry.PrefetchDroppedQueue]
				if total != c.PrefetchesIssued {
					t.Errorf("seed %d: outcome total %d != PrefetchesIssued %d",
						seed, total, c.PrefetchesIssued)
				}
				if outcomes[telemetry.PrefetchUseless] != c.PrefetchesUseless {
					t.Errorf("seed %d: useless outcomes %d != PrefetchesUseless %d",
						seed, outcomes[telemetry.PrefetchUseless], c.PrefetchesUseless)
				}
				dropped := outcomes[telemetry.PrefetchDroppedTLB] + outcomes[telemetry.PrefetchDroppedQueue]
				if dropped != c.PrefetchesDropped {
					t.Errorf("seed %d: dropped outcomes %d != PrefetchesDropped %d",
						seed, dropped, c.PrefetchesDropped)
				}
			}
		})
	}
}
