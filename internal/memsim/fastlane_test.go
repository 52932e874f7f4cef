package memsim

import (
	"math/rand"
	"testing"

	"strider/internal/arch"
)

// TestHitLaneMatchesFullPath drives two Memories of each machine and
// hardware model with the same seeded access stream: one issues every
// access through LoadAt/Store, the other tries LoadHit/StoreHit first and
// falls back to the full path on a bail, as a specialized engine does.
// Stall cycles, counters and hardware-prefetcher statistics must agree
// access by access, and the lane must complete a good share of the
// accesses, so both its outcomes are exercised.
func TestHitLaneMatchesFullPath(t *testing.T) {
	for _, base := range arch.Machines() {
		for _, model := range HWModels() {
			m := machineWithModel(base, model)
			t.Run(m.Name+"/"+model, func(t *testing.T) {
				full, lane := New(m), New(m)
				if !lane.FastLaneOK() {
					t.Fatalf("%s model excluded from the hit lane", model)
				}
				rng := rand.New(rand.NewSource(5))
				var now uint64
				addr := uint32(0x10000)
				completed := 0
				for op := 0; op < 20_000; op++ {
					switch r := rng.Intn(10); {
					case r < 6: // stay on the line
					case r < 8: // next line
						addr += 64
					default: // anywhere in a 4 MiB window
						addr = 0x10000 + uint32(rng.Intn(1<<22))&^3
					}
					pc := uint64(1 + rng.Intn(3))
					var want, got uint64
					var ok bool
					if rng.Intn(4) == 0 {
						want = full.Store(addr, 4, now)
						if got, ok = lane.StoreHit(addr, now); !ok {
							got = lane.Store(addr, 4, now)
						}
					} else {
						want = full.LoadAt(addr, 4, now, pc)
						if got, ok = lane.LoadHit(addr, now); !ok {
							got = lane.LoadAt(addr, 4, now, pc)
						}
					}
					if ok {
						completed++
					}
					if got != want || lane.C != full.C || lane.HWStats() != full.HWStats() {
						t.Fatalf("op %d at 0x%x: lane stall %d counters %+v hw %+v; full path stall %d counters %+v hw %+v",
							op, addr, got, lane.C, lane.HWStats(), want, full.C, full.HWStats())
					}
					now += want + uint64(rng.Intn(50))
				}
				if completed < 1000 {
					t.Fatalf("hit lane completed only %d accesses", completed)
				}
			})
		}
	}
}

// TestNewCacheRejectsUnsupportedGeometry: recency links are bytes and
// tags reserve one value, so a cache wider than maxWays or with 1-byte
// lines is a programming error caught at construction.
func TestNewCacheRejectsUnsupportedGeometry(t *testing.T) {
	for _, p := range []arch.CacheParams{
		{SizeBytes: 256 * 64, LineBytes: 64, Assoc: 256},
		{SizeBytes: 64, LineBytes: 1, Assoc: 4},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newCache(%+v) did not panic", p)
				}
			}()
			newCache(p)
		}()
	}
}
