package memsim

import (
	"math/rand"
	"testing"

	"strider/internal/arch"
)

// TestHitLaneMatchesFullPath drives two Memories of each machine and
// hardware model with the same seeded stream: one issues every access
// through LoadAt/Store, the other tries LoadHit/StoreHit first and falls
// back to the full path on a bail, as the interpreter does. The stream
// interleaves guarded and unguarded software prefetches, which leave the
// L1 memo pointing at a line still in flight and prime the DTLB, and
// resets both Memories midway. Stall cycles, prefetch outcomes, counters
// and hardware-prefetcher statistics must agree access by access. It is
// the reference check of the probes: the lane must complete a good share
// of the accesses, and must also be offered memo lines that have not yet
// arrived, so every outcome of the probe is exercised.
func TestHitLaneMatchesFullPath(t *testing.T) {
	const ops = 20_000
	for _, base := range arch.Machines() {
		for _, model := range HWModels() {
			m := machineWithModel(base, model)
			t.Run(m.Name+"/"+model, func(t *testing.T) {
				full, lane := New(m), New(m)
				rng := rand.New(rand.NewSource(5))
				var now uint64
				addr := uint32(0x10000)
				completed, inFlight, prefetched := 0, 0, 0
				check := func(op int, what string, got, want uint64) {
					t.Helper()
					if got != want || lane.C != full.C || lane.HWStats() != full.HWStats() {
						t.Fatalf("op %d %s at 0x%x: lane %d counters %+v hw %+v; full path %d counters %+v hw %+v",
							op, what, addr, got, lane.C, lane.HWStats(), want, full.C, full.HWStats())
					}
				}
				for op := 0; op < ops; op++ {
					if op == ops/2 {
						full.Reset()
						lane.Reset()
						check(op, "reset", 0, 0)
					}
					switch r := rng.Intn(10); {
					case r < 6: // stay on the line
					case r < 8: // next line
						addr += 64
					default: // anywhere in a 4 MiB window
						addr = 0x10000 + uint32(rng.Intn(1<<22))&^3
					}
					if rng.Intn(8) == 0 {
						// Prefetch a nearby line and usually move onto it, so
						// the next access finds the memo on a line in flight.
						target := addr + uint32(64*rng.Intn(4))
						guarded := rng.Intn(2) == 0
						want := full.Prefetch(target, guarded, now)
						got := lane.Prefetch(target, guarded, now)
						check(op, "prefetch", uint64(got), uint64(want))
						prefetched++
						if rng.Intn(4) != 0 {
							addr = target
						}
						now += uint64(rng.Intn(4))
						continue
					}
					c := &lane.l1
					if c.memo != nil && c.memoTag == uint64(addr)>>c.lineShift && *c.memo > now {
						inFlight++
					}
					pc := uint64(1 + rng.Intn(3))
					var want, got uint64
					var ok bool
					what := "load"
					if rng.Intn(4) == 0 {
						what = "store"
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
					check(op, what, got, want)
					now += want + uint64(rng.Intn(50))
				}
				if completed < 1000 {
					t.Fatalf("hit lane completed only %d accesses", completed)
				}
				if inFlight < 100 || prefetched < 1000 {
					t.Fatalf("stream offered the lane %d in-flight memo lines over %d prefetches; too few to test the arrival check",
						inFlight, prefetched)
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
