// The inline-probe hit lane. LoadAt/Store are the per-access entry points
// of every simulation. The two probes below split off the overwhelmingly
// common case — another access to the line and page the hierarchy touched
// last, already arrived — into call-free code small enough for the Go
// inliner (the budget is 80 nodes; LoadHit costs 73, so a single nested
// call would push it over). The interpreter inlines them at each heap
// access site and pays a few loads and compares instead of a call into
// the full access path. Accesses the probe bails on — a different line
// (even the head of its set's recency list), a line still in flight, a TLB
// memo miss — take the full LoadAt/Store as a direct call. The probes stay
// separate from LoadAt/Store for that reason: folding them in would make
// every access pay the outlined path's call.
//
// # Equivalence argument
//
// A probe either completes the access or bails with ok=false, and it is
// exact in both outcomes because it commits nothing until the access is
// decided:
//
//   - The presence checks are the caches' memo comparisons, and memo hits
//     are precisely the lookups that commit no state: the memo line is
//     already the head of its set's recency list, so the move-to-front a
//     hit performs would leave the order unchanged, and the full path
//     skips it on a memo hit too (see the memo elision argument on cache
//     in memsim.go). A completed probe therefore performs the identical
//     (empty) recency transition the full path would have performed.
//   - A bail touches neither counters nor recency state, so the caller's
//     fallback LoadAt/Store runs against the exact state a direct call
//     would have seen.
//   - A memo line whose fill is still in flight (a prefetch, or a miss
//     whose readyAt lies ahead of now) fails the readyAt test and bails,
//     so the full path charges its wait.
//
// On the completed path the counter algebra is LoadAt/Store's verbatim:
// an arrived L1 hit behind a TLB hit charges exactly L1HitCycles on a
// load (extraWait is zero once readyAt <= now) and exactly zero on a
// store (the L1-hit store stall is extraWait/StoreFactor = 0), so
// CheckInvariants sees identical numbers whether the probe completed the
// access or not. TestHitLaneMatchesFullPath checks all of this access by
// access on both machines under every hardware model.
//
// # Hardware-prefetcher contract
//
// The hit lane never hides a reference from any HWPrefetcher model:
// Memory trains the unit only on demand L1 *misses* (LoadAt's miss path)
// and on software prefetches (Prefetch) — L1 hits are architecturally
// invisible to every model behind the interface, and stores never train
// at all. ipstride, tracker, and multistride key on the load-site pc, but
// they too observe only the miss stream, which the probes by construction
// never intercept. A model that must observe L1 hits cannot be expressed
// through HWPrefetcher.Train; adding one means changing this contract and
// the probes together.
package memsim

// LoadHit is the demand-load hit lane: a TLB-memo hit plus an L1-memo hit
// whose line has arrived completes the load for exactly L1HitCycles;
// anything else returns ok=false with no state touched, and the caller
// must issue the full LoadAt with the same arguments. pc is not a
// parameter because completed hits never train the hardware prefetcher
// (see the hardware-prefetcher contract above); the fallback call
// carries it.
func (mem *Memory) LoadHit(addr uint32, now uint64) (uint64, bool) {
	t := &mem.tlb
	if t.memo == nil || t.memoTag != uint64(addr)>>t.lineShift {
		return 0, false
	}
	c := &mem.l1
	r := c.memo
	if r == nil || c.memoTag != uint64(addr)>>c.lineShift || *r > now {
		return 0, false
	}
	mem.C.Loads++
	mem.C.LoadStallCycles += mem.l1Hit
	return mem.l1Hit, true
}

// StoreHit is the demand-store hit lane; same structure and bail
// conditions as LoadHit. A completed store behind a TLB hit and an
// arrived L1 line stalls zero cycles (extraWait/StoreFactor of nothing),
// so only Stores advances.
func (mem *Memory) StoreHit(addr uint32, now uint64) (uint64, bool) {
	t := &mem.tlb
	if t.memo == nil || t.memoTag != uint64(addr)>>t.lineShift {
		return 0, false
	}
	c := &mem.l1
	r := c.memo
	if r == nil || c.memoTag != uint64(addr)>>c.lineShift || *r > now {
		return 0, false
	}
	mem.C.Stores++
	return 0, true
}
