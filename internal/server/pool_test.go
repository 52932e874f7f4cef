package server

import (
	"fmt"
	"reflect"
	"testing"
)

// freshVsPooled runs one cell twice on the same executor and returns both
// responses: the first builds a fresh VM, the second must reuse it from
// the pool.
func freshVsPooled(t *testing.T, e *executor, jb Job) (fresh, pooled *Response) {
	t.Helper()
	spec := jb.Spec().Canonical()
	fresh = e.run(spec, false)
	if fresh.Pooled {
		t.Fatalf("%v: first run claims pooled", jb)
	}
	pooled = e.run(spec, false)
	if !pooled.Pooled {
		t.Fatalf("%v: second run did not reuse the parked VM", jb)
	}
	return fresh, pooled
}

// TestPooledVMReproducesFresh is the VM-pool reset-correctness regression:
// for plain cells, fuzz programs, and a deterministically trapping job, a
// recycled VM must produce a response deeply equal to the fresh VM's.
func TestPooledVMReproducesFresh(t *testing.T) {
	for _, jb := range []Job{
		{Workload: "jess"},
		{Workload: "search", Mode: "baseline", Machine: "AthlonMP"},
		{Workload: "db", GC: "freelist", HW: "ipstride"},
		{Workload: "fuzz:0x3"},
		{Workload: "fuzz:0x9"},
	} {
		e := &executor{pool: newVMPool(16)}
		fresh, pooled := freshVsPooled(t, e, jb)
		if !reflect.DeepEqual(fresh.Deterministic(), pooled.Deterministic()) {
			t.Errorf("%v: pooled response diverges from fresh:\n%+v\nvs\n%+v", jb, fresh, pooled)
		}
		if n := e.pool.poisoned.Load(); n != 0 {
			t.Errorf("%v: healthy reuse counted as poisoned (%d)", jb, n)
		}
	}
}

// TestPooledVMReproducesTrap pins recycling across a trapping execution:
// a job that traps parks its VM with the canonical error text, and the
// recycled VM traps identically — the pool never converts a deterministic
// trap into a different outcome.
func TestPooledVMReproducesTrap(t *testing.T) {
	e := &executor{pool: newVMPool(16)}
	jb := Job{Workload: "fuzz:0x7", HeapBytes: 4096}
	fresh, pooled := freshVsPooled(t, e, jb)
	if fresh.Trap != "out-of-memory" {
		t.Fatalf("trap cell did not trap: %+v", fresh)
	}
	if !reflect.DeepEqual(fresh.Deterministic(), pooled.Deterministic()) {
		t.Errorf("pooled trap diverges from fresh:\n%+v\nvs\n%+v", fresh, pooled)
	}
	if n := e.pool.poisoned.Load(); n != 0 {
		t.Errorf("identical trap counted as poisoned (%d)", n)
	}

	// After the trap, an unrelated healthy cell is unaffected.
	ok := e.run(Job{Workload: "fuzz:0x3"}.Spec().Canonical(), false)
	if ok.Trap != "" || ok.Stats == nil {
		t.Errorf("healthy cell after trap cell: %+v", ok)
	}
}

// TestPoolPoisoningGuard pins the guard itself: a parked VM whose recorded
// canonical outcome does not match what the recycled run produces is
// discarded and counted, and the request silently falls back to a fresh
// execution with the correct result.
func TestPoolPoisoningGuard(t *testing.T) {
	e := &executor{pool: newVMPool(16)}
	jb := Job{Workload: "jess"}
	spec := jb.Spec().Canonical()
	fresh := e.run(spec, false)
	if fresh.Stats == nil {
		t.Fatalf("fresh run failed: %+v", fresh)
	}

	// Corrupt the parked VM's canonical checksum so the guard must fire.
	key := spec.Key()
	pv := e.pool.get(key)
	if pv == nil {
		t.Fatal("no VM parked after fresh run")
	}
	pv.checksum ^= 0xdeadbeef
	e.pool.put(key, pv)

	resp := e.run(spec, false)
	if resp.Pooled {
		t.Error("poisoned VM served a response")
	}
	if n := e.pool.poisoned.Load(); n != 1 {
		t.Errorf("poisoned counter = %d, want 1", n)
	}
	if !reflect.DeepEqual(fresh.Deterministic(), resp.Deterministic()) {
		t.Errorf("fallback response diverges from canonical:\n%+v\nvs\n%+v", fresh, resp)
	}
	// The discarded VM is gone; the fallback's fresh VM is parked instead
	// and serves the next request.
	again := e.run(spec, false)
	if !again.Pooled {
		t.Error("fresh fallback VM was not re-parked")
	}
	if !reflect.DeepEqual(fresh.Deterministic(), again.Deterministic()) {
		t.Error("re-parked VM diverges from canonical")
	}
}

// TestPoolCapacityAndDisable pins the pool's bounds: capacity 0 disables
// pooling entirely; a full pool evicts its least recently parked VM to
// park the newest one, counting the eviction as a drop, instead of
// growing.
func TestPoolCapacityAndDisable(t *testing.T) {
	off := &executor{pool: newVMPool(0)}
	spec := Job{Workload: "jess"}.Spec().Canonical()
	off.run(spec, false)
	r := off.run(spec, false)
	if r.Pooled {
		t.Error("disabled pool served a recycled VM")
	}
	if off.pool.size() != 0 {
		t.Error("disabled pool parked a VM")
	}

	one := &executor{pool: newVMPool(1)}
	one.run(Job{Workload: "jess"}.Spec().Canonical(), false)
	db := Job{Workload: "db"}.Spec().Canonical()
	one.run(db, false)
	if one.pool.size() != 1 {
		t.Errorf("pool size %d, want 1 (capacity)", one.pool.size())
	}
	if one.pool.drops.Load() != 1 {
		t.Errorf("%d drops, want 1: the evicted jess VM", one.pool.drops.Load())
	}
	if r := one.run(db, false); !r.Pooled {
		t.Error("the newest key was not the one parked")
	}
}

// TestPoolKeepsRecurringKey pins eviction order under a stream of
// one-shot cells (fresh fuzz programs): a recurring cell whose rerun
// overlaps two one-shot completions on other shards must find its VM
// parked on every round. A pool that drops returns when full instead
// drops the recurring key's return in round 1 and misses it from round 2
// on.
func TestPoolKeepsRecurringKey(t *testing.T) {
	p := newVMPool(4)
	for round := range 50 {
		pv := p.get("hot")
		if round > 0 && pv == nil {
			t.Fatalf("round %d: recurring key is not parked (pool holds %d)", round, p.size())
		}
		p.put(fmt.Sprintf("once-%d-a", round), &pooledVM{})
		p.put(fmt.Sprintf("once-%d-b", round), &pooledVM{})
		if pv == nil {
			pv = &pooledVM{}
		}
		p.put("hot", pv)
	}
	if p.size() != 4 {
		t.Errorf("pool holds %d VMs, want its capacity 4", p.size())
	}
	if got := p.hits.Load(); got != 49 {
		t.Errorf("%d hits, want 49", got)
	}
}
