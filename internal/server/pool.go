package server

import (
	"math"
	"sync"
	"sync/atomic"

	"strider/internal/vm"
)

// pooledVM is a parked, already-warm VM for one cell key, together with
// the cell's canonical outcome — the reset-correctness guard every reuse
// is checked against.
type pooledVM struct {
	v *vm.VM
	// checksum is the cell's canonical result checksum (successful runs);
	// errText is the canonical runtime-error text (trapping runs). A
	// recycled VM that reproduces neither is poisoned: its reset failed to
	// restore the pre-run state, so it is discarded and the cell re-runs
	// on a fresh VM.
	checksum uint64
	errText  string
	// seq is the pool's put counter when this VM was parked; a full pool
	// evicts the VM with the smallest.
	seq uint64
}

// vmPool parks at most one steady VM per cell key. A VM enters the pool
// after completing a full measured execution (warmups + measured run);
// because every run after the first is byte-identical on a correctly
// reset VM (the fresh-vs-pooled suite pins this), a recycled VM's next
// run reproduces the cell's canonical stats exactly while skipping the
// program build and all JIT compilation.
//
// A full pool evicts the least recently parked VM, so a stream of
// one-shot cells (fresh fuzz programs) cannot lock out the keys that do
// come back.
//
// Cell keys are sharded onto workers by hash, so a key's executions are
// already serialized; the mutex makes the pool safe regardless of the
// scheduling topology above it.
type vmPool struct {
	mu      sync.Mutex
	byKey   map[string]*pooledVM
	maxKeys int
	puts    uint64 // put sequence, under mu

	hits     atomic.Uint64 // get() served a parked VM
	misses   atomic.Uint64 // get() had nothing parked for the key
	returns  atomic.Uint64 // put() parked a VM
	drops    atomic.Uint64 // put() discarded or evicted a VM (duplicate, pool full, or disabled)
	poisoned atomic.Uint64 // recycled VM failed the reset-correctness guard
}

func newVMPool(maxKeys int) *vmPool {
	return &vmPool{byKey: make(map[string]*pooledVM), maxKeys: maxKeys}
}

// get removes and returns the parked VM for key, or nil.
func (p *vmPool) get(key string) *pooledVM {
	p.mu.Lock()
	pv := p.byKey[key]
	if pv != nil {
		delete(p.byKey, key)
	}
	p.mu.Unlock()
	if pv == nil {
		p.misses.Add(1)
		return nil
	}
	p.hits.Add(1)
	return pv
}

// put parks a VM for key, unless the pool already holds one for the key
// or is disabled. At key capacity it first evicts the least recently
// parked VM; the linear scan is cheap next to the execution that precedes
// every put.
func (p *vmPool) put(key string, pv *pooledVM) {
	p.mu.Lock()
	if _, dup := p.byKey[key]; dup || p.maxKeys <= 0 {
		p.mu.Unlock()
		p.drops.Add(1)
		return
	}
	if len(p.byKey) >= p.maxKeys {
		var oldest string
		oldestSeq := uint64(math.MaxUint64)
		for k, v := range p.byKey {
			if v.seq < oldestSeq {
				oldest, oldestSeq = k, v.seq
			}
		}
		delete(p.byKey, oldest)
		p.drops.Add(1)
	}
	p.puts++
	pv.seq = p.puts
	p.byKey[key] = pv
	p.mu.Unlock()
	p.returns.Add(1)
}

// size returns the number of parked VMs.
func (p *vmPool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.byKey)
}

// PoolStats is the /stats rendering of the VM pool.
type PoolStats struct {
	Parked   int    `json:"parked"`
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Returns  uint64 `json:"returns"`
	Drops    uint64 `json:"drops"`
	Poisoned uint64 `json:"poisoned"`
}

func (p *vmPool) stats() PoolStats {
	return PoolStats{
		Parked:   p.size(),
		Hits:     p.hits.Load(),
		Misses:   p.misses.Load(),
		Returns:  p.returns.Load(),
		Drops:    p.drops.Load(),
		Poisoned: p.poisoned.Load(),
	}
}
