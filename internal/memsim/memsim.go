// Package memsim simulates the memory hierarchy of the evaluation machines:
// an L1 data cache, a unified L2, and a data TLB, all set-associative with
// LRU replacement, plus the software-prefetch semantics the paper relies on
// (Sec. 3.3 and 4):
//
//   - a hardware prefetch instruction is cancelled when it would miss the
//     DTLB (so it cannot prime TLB entries);
//   - a prefetch fills the machine's target level — L2 on the Pentium 4,
//     L1 (and L2, inclusively) on the Athlon MP;
//   - a guarded load ("TLB priming") behaves like a non-blocking load: it
//     fills the DTLB and both cache levels;
//   - prefetched lines have an arrival time; a demand access that arrives
//     before the line does stalls for the remainder, so prefetching too
//     late helps only partially, and prefetching uselessly still costs
//     issue slots and queue capacity;
//   - the number of in-flight prefetches is bounded; overflow drops.
package memsim

import (
	"fmt"

	"strider/internal/arch"
	"strider/internal/telemetry"
)

// Counters accumulates the events the paper reports (MPIs are computed by
// the harness as misses / retired instructions).
type Counters struct {
	Loads  uint64
	Stores uint64

	L1LoadMisses   uint64
	L2LoadMisses   uint64
	DTLBLoadMisses uint64

	L1StoreMisses   uint64
	L2StoreMisses   uint64
	DTLBStoreMisses uint64

	HWPrefetches      uint64
	PrefetchesIssued  uint64
	PrefetchesGuarded uint64
	PrefetchesDropped uint64 // DTLB-cancelled or queue-full
	PrefetchesUseless uint64 // line already present at or above target level

	LoadStallCycles  uint64
	StoreStallCycles uint64
}

// cache is one set-associative level with exact LRU replacement. Its
// per-way state is kept as parallel arrays indexed by flat way number —
// set s occupies ways [s*assoc, (s+1)*assoc) — so a set lookup scans only
// the set's adjacent 4-byte tags (an 8-way set's take half a 64-byte host
// cache line) and touches the rest of the way state only on a hit. The set
// count is a power of two (Table 2 machines), so indexing is a mask.
type cache struct {
	// tags[i] is the key (tagKey) of the line held by way i, or 0 while
	// the way has not been filled since the last flush.
	tags []uint32
	// ready[i] is the cycle at which way i's line arrives; lookup and
	// probe return a pointer to it.
	ready []uint64
	// lru holds each set's exact recency order, set s's list (lru.go) in
	// lru[s*(assoc+1) : (s+1)*(assoc+1)]. After a flush the list puts the
	// unfilled ways last in index order, so the victim of a fill — the
	// set's next unfilled way, else its least recently used line — is
	// always the list's tail, found in O(1).
	lru       []lruLink
	assoc     uint64
	lineShift uint
	setMask   uint64
	// memoTag/memo short-circuit a lookup of the same line as the most
	// recent lookup hit or fill, skipping the set search and the recency
	// update. Eliding the update is unobservable: the memo line is the head
	// of its set's recency list (the hit or fill that set the memo made it
	// so, and any other hit or fill replaces the memo), and moving the head
	// to the head leaves the order unchanged. probe neither sets nor
	// consults the memo — it never updates the recency order, so a memo set
	// by it could name a line that is not its set's head.
	memoTag uint64
	memo    *uint64
	// idx maps tag → flat way index for high-associativity geometries
	// (the fully associative 64-entry Pentium 4 DTLB, the 16-way Athlon MP
	// L2), where the tag scan dominates lookup cost. It mirrors tags
	// exactly — tags change only in fill and flush, and both maintain it —
	// so presence and victim choice are identical to the scan; only the
	// search is O(1). nil for low associativity, where the adjacent-memory
	// scan is already cheaper than hashing.
	idx *tagMap
}

// tagKey is how tags and the tag map store a line address: its
// complement, so zeroed memory reads as empty and a flush is a plain
// clear. No line address is all ones (simulated addresses are 32-bit and
// lines at least 2 bytes), so no key is 0.
func tagKey(tag uint64) uint32 { return ^uint32(tag) }

// tagMap is a fixed-capacity open-addressing hash table (linear probing,
// backward-shift deletion) from tag key to flat line index. A built-in map
// is not used because delete/insert churn makes it rehash — an allocation
// on the simulation hot path, which the bench suite gates at zero.
type tagMap struct {
	entries []tagEntry // key 0 marks a vacant slot
	mask    uint64
}

type tagEntry struct {
	key uint32
	val uint32
}

func newTagMap(lines int) *tagMap {
	cap := uint64(4)
	for cap < 2*uint64(lines) { // ≤50% load keeps probe chains short
		cap <<= 1
	}
	return &tagMap{entries: make([]tagEntry, cap), mask: cap - 1}
}

func (m *tagMap) slot(key uint32) uint64 {
	// Fibonacci hashing; keys are dense low-entropy integers.
	return (uint64(key) * 0x9E3779B97F4A7C15) >> 32 & m.mask
}

func (m *tagMap) get(key uint32) (uint32, bool) {
	for i := m.slot(key); ; i = (i + 1) & m.mask {
		e := m.entries[i]
		if e.key == key {
			return e.val, true
		}
		if e.key == 0 {
			return 0, false
		}
	}
}

// put inserts a key not currently present (every fill is preceded by a
// miss, so duplicates cannot occur).
func (m *tagMap) put(key uint32, val uint32) {
	i := m.slot(key)
	for m.entries[i].key != 0 {
		i = (i + 1) & m.mask
	}
	m.entries[i] = tagEntry{key: key, val: val}
}

// del removes a present key, backward-shifting the probe chain so lookups
// never cross a stale vacancy.
func (m *tagMap) del(key uint32) {
	i := m.slot(key)
	for m.entries[i].key != key {
		i = (i + 1) & m.mask
	}
	for {
		m.entries[i].key = 0
		j := i
		for {
			j = (j + 1) & m.mask
			e := m.entries[j]
			if e.key == 0 {
				return
			}
			// e may move into the vacancy only if its home slot lies
			// cyclically at or before the vacancy.
			if (j-m.slot(e.key))&m.mask >= (j-i)&m.mask {
				m.entries[i] = e
				i = j
				break
			}
		}
	}
}

// idxMinAssoc is the associativity at which lookup switches from the
// linear way scan to the tag index map.
const idxMinAssoc = 16

// newCache builds an empty cache. Lines must be at least 2 bytes and
// associativity at most maxWays.
func newCache(p arch.CacheParams) cache {
	if p.LineBytes < 2 || p.Assoc > maxWays {
		panic(fmt.Sprintf("memsim: unsupported cache geometry %d B lines, %d ways", p.LineBytes, p.Assoc))
	}
	n := uint64(p.Sets()) * uint64(p.Assoc)
	c := cache{
		tags:    make([]uint32, n),
		ready:   make([]uint64, n),
		lru:     make([]lruLink, n+uint64(p.Sets())),
		assoc:   uint64(p.Assoc),
		setMask: uint64(p.Sets() - 1),
	}
	for s := uint32(1); s < p.LineBytes; s <<= 1 {
		c.lineShift++
	}
	if p.Assoc >= idxMinAssoc {
		c.idx = newTagMap(int(n))
	}
	c.resetLists()
	return c
}

// resetLists puts every set's recency list in its initial order. Links
// are set-relative, so every set's initial list is the same: reset the
// first and copy it over the rest in doubling runs.
func (c *cache) resetLists() {
	c.list(0).reset()
	for k := int(c.assoc + 1); k < len(c.lru); k *= 2 {
		copy(c.lru[k:], c.lru[:k])
	}
}

// list returns set's recency list.
func (c *cache) list(set uint64) lruList {
	b := set * (c.assoc + 1)
	return c.lru[b : b+c.assoc+1]
}

// find returns the flat way index holding tag, and whether that way is
// its set's most recently used. It checks the set's head first: repeated
// and alternating access patterns hit it far more often than any other
// way, and the check costs neither the scan nor a hash.
func (c *cache) find(tag uint64) (i uint64, head, ok bool) {
	set := tag & c.setMask
	base := set * c.assoc
	key := tagKey(tag)
	if h := base + uint64(c.list(set)[c.assoc].next); c.tags[h] == key {
		return h, true, true
	}
	if c.idx != nil {
		w, ok := c.idx.get(key)
		return uint64(w), false, ok
	}
	for w, t := range c.tags[base : base+c.assoc] {
		if t == key {
			return base + uint64(w), false, true
		}
	}
	return 0, false, false
}

// lookup returns the arrival time of addr's line if present, making the
// line its set's most recently used, else nil.
func (c *cache) lookup(addr uint64) *uint64 {
	tag := addr >> c.lineShift
	if r := c.memo; r != nil && c.memoTag == tag {
		return r
	}
	i, head, ok := c.find(tag)
	if !ok {
		return nil
	}
	if !head {
		set := tag & c.setMask
		c.list(set).touch(uint8(i - set*c.assoc))
	}
	r := &c.ready[i]
	c.memoTag, c.memo = tag, r
	return r
}

// probe is lookup without the recency update (used by prefetch presence
// checks); it writes nothing.
func (c *cache) probe(addr uint64) *uint64 {
	if i, _, ok := c.find(addr >> c.lineShift); ok {
		return &c.ready[i]
	}
	return nil
}

// fill installs addr's line, which must be absent, with the given arrival
// time into its set's next unfilled way, else over its LRU line.
func (c *cache) fill(addr uint64, readyAt uint64) {
	tag := addr >> c.lineShift
	set := tag & c.setMask
	i := set*c.assoc + uint64(c.list(set).take())
	key := tagKey(tag)
	if c.idx != nil {
		if c.tags[i] != 0 {
			c.idx.del(c.tags[i])
		}
		c.idx.put(key, uint32(i))
	}
	c.tags[i] = key
	c.ready[i] = readyAt
	// The fill may have evicted the memo line; repointing the memo at the
	// freshly filled line, now its set's head, keeps it truthful.
	c.memoTag, c.memo = tag, &c.ready[i]
}

// flush empties the cache.
func (c *cache) flush() {
	clear(c.tags)
	clear(c.ready)
	c.resetLists()
	c.memoTag, c.memo = 0, nil
	if c.idx != nil {
		clear(c.idx.entries)
	}
}

// Memory is the simulated memory hierarchy of one machine.
type Memory struct {
	Arch *arch.Machine

	l1, l2 cache
	tlb    cache // reuses the cache structure with page-size lines

	C Counters

	// inflight holds arrival times of outstanding prefetches (a small
	// ring; entries with readyAt <= now are reclaimed lazily).
	inflight []uint64

	// hw is the machine's hardware prefetch unit (Arch.HWPrefetcher; the
	// per-page stream detector by default). It trains on the demand-miss
	// and software-prefetch reference stream and fills the L2 through the
	// HWPort methods below.
	hw HWPrefetcher
	// stream is inline storage for the default model: New points hw at it
	// instead of heap-allocating, so constructing a default Memory costs
	// no more allocations than before the prefetcher became pluggable
	// (the bench suite gates allocs/op at zero growth).
	stream streamPrefetcher
	// l1Hit caches Arch.L1HitCycles one pointer hop closer for the inline
	// hit lane (fastlane.go), which budgets every load it makes.
	l1Hit uint64

	// selfCheck enables fill-time structural invariant checking (see
	// EnableSelfCheck). Off by default: zero cost, identical behaviour.
	selfCheck  bool
	violations []string
}

// New creates the memory system for a machine. The machine's HWPrefetcher
// field selects the hardware-prefetch model ("" = the default stream
// detector); an unknown model name panics — validate with ValidHWModel at
// the flag/spec boundary.
func New(m *arch.Machine) *Memory {
	mem := &Memory{
		Arch:     m,
		l1:       newCache(m.L1D),
		l2:       newCache(m.L2U),
		tlb:      newCache(dtlbGeometry(m)),
		inflight: make([]uint64, 0, m.PrefetchQueue),
		l1Hit:    m.L1HitCycles,
	}
	// Every model trains on L2 lines and stops at the DTLB's pages.
	b := hwBase{port: mem, lineShift: mem.l2.lineShift, pageShift: mem.tlb.lineShift}
	if m.HWPrefetcher == "" || m.HWPrefetcher == DefaultHWModel {
		mem.stream.hwBase = b
		mem.stream.Reset()
		mem.hw = &mem.stream
	} else {
		mem.hw = newHWPrefetcher(m.HWPrefetcher, b)
	}
	return mem
}

// dtlbGeometry describes m's DTLB as a cache whose lines are pages.
func dtlbGeometry(m *arch.Machine) arch.CacheParams {
	return arch.CacheParams{
		SizeBytes: m.DTLB.Entries * m.DTLB.PageSize,
		LineBytes: m.DTLB.PageSize,
		Assoc:     m.DTLB.Assoc,
	}
}

// Reset clears all cache, TLB, counter, and hardware-prefetcher state; a
// reset Memory is bit-identical to a freshly constructed one.
func (mem *Memory) Reset() {
	mem.l1.flush()
	mem.l2.flush()
	mem.tlb.flush()
	mem.C = Counters{}
	mem.inflight = mem.inflight[:0]
	mem.hw.Reset()
}

// HWModel returns the name of the active hardware-prefetcher model.
func (mem *Memory) HWModel() string { return mem.hw.Name() }

// HWStats returns the hardware prefetcher's statistics for the current
// counter window.
func (mem *Memory) HWStats() HWStats { return mem.hw.Stats() }

// ProbeL2 implements HWPort.
func (mem *Memory) ProbeL2(addr uint64) bool { return mem.l2.probe(addr) != nil }

// FillL2 implements HWPort: install a hardware-prefetched line with full
// memory latency and count it.
func (mem *Memory) FillL2(addr uint64, now uint64) {
	mem.C.HWPrefetches++
	mem.l2.fill(addr, now+mem.Arch.L2HitCycles+mem.Arch.MemCycles)
}

// ResetCounters clears counters but keeps cache contents and trained
// prefetcher state (used between a warmup run and a measured run); the
// hardware prefetcher's statistics are cleared with the counters so
// C.HWPrefetches and HWStats().Issued stay in lockstep.
func (mem *Memory) ResetCounters() {
	mem.C = Counters{}
	mem.hw.ClearStats()
}

// EnableSelfCheck turns on fill-time invariant checking: every L1 fill
// verifies that the line is simultaneously present in the L2 (the
// inclusion property of the model — on the Athlon MP the paper relies on
// it: prefetches fill "L1 (and L2, inclusively)"). Violations are
// recorded, never fatal; simulation results are unaffected (the check
// uses a probe, which does not touch LRU state).
func (mem *Memory) EnableSelfCheck() { mem.selfCheck = true }

// Violations returns the recorded self-check violations.
func (mem *Memory) Violations() []string { return mem.violations }

// fillL1 installs a line in the L1, checking fill-time L2 inclusion when
// self-checking is enabled.
func (mem *Memory) fillL1(addr uint64, readyAt uint64) {
	mem.l1.fill(addr, readyAt)
	if mem.selfCheck && mem.l2.probe(addr) == nil {
		mem.violations = append(mem.violations,
			fmt.Sprintf("%s: L1 fill of 0x%x without an L2 copy (inclusion broken at fill time)",
				mem.Arch.Name, addr))
	}
}

// CheckInvariants validates the counter algebra of one run and returns
// any violations: miss counters must be conserved down the hierarchy, the
// prefetch outcome counters must partition the issue counter, stall
// totals must respect the machine's latency bounds, and the in-flight
// prefetch window must respect the queue bound. It reads only counters
// and configuration, so it can run inside the differ after every cell
// without perturbing the simulation.
func (mem *Memory) CheckInvariants() []string {
	var v []string
	c, a := mem.C, mem.Arch
	bad := func(format string, args ...interface{}) {
		v = append(v, fmt.Sprintf("%s: ", a.Name)+fmt.Sprintf(format, args...))
	}
	if c.L1LoadMisses > c.Loads {
		bad("L1 load misses %d > loads %d", c.L1LoadMisses, c.Loads)
	}
	if c.L2LoadMisses > c.L1LoadMisses {
		bad("L2 load misses %d > L1 load misses %d", c.L2LoadMisses, c.L1LoadMisses)
	}
	if c.DTLBLoadMisses > c.Loads {
		bad("DTLB load misses %d > loads %d", c.DTLBLoadMisses, c.Loads)
	}
	if c.L1StoreMisses > c.Stores {
		bad("L1 store misses %d > stores %d", c.L1StoreMisses, c.Stores)
	}
	if c.L2StoreMisses > c.L1StoreMisses {
		bad("L2 store misses %d > L1 store misses %d", c.L2StoreMisses, c.L1StoreMisses)
	}
	if c.DTLBStoreMisses > c.Stores {
		bad("DTLB store misses %d > stores %d", c.DTLBStoreMisses, c.Stores)
	}
	if c.PrefetchesGuarded > c.PrefetchesIssued {
		bad("guarded prefetches %d > issued %d", c.PrefetchesGuarded, c.PrefetchesIssued)
	}
	if c.PrefetchesDropped+c.PrefetchesUseless > c.PrefetchesIssued {
		bad("dropped %d + useless %d > issued %d",
			c.PrefetchesDropped, c.PrefetchesUseless, c.PrefetchesIssued)
	}
	// Stall bounds. The worst per-load stall is a cold full miss plus the
	// discounted wait for a chained in-flight line; 2*(L2+Mem) safely
	// dominates every path through Load. Stores are charged at most the
	// same before the StoreFactor discount.
	maxLoad := a.L1HitCycles + a.DTLBMissCycles + 2*(a.L2HitCycles+a.MemCycles)
	if c.LoadStallCycles > c.Loads*maxLoad {
		bad("load stall cycles %d exceed %d loads * %d bound", c.LoadStallCycles, c.Loads, maxLoad)
	}
	if c.LoadStallCycles < c.Loads*a.L1HitCycles {
		bad("load stall cycles %d below %d loads * L1 hit %d", c.LoadStallCycles, c.Loads, a.L1HitCycles)
	}
	maxStore := a.DTLBMissCycles + 2*(a.L2HitCycles+a.MemCycles)
	if c.StoreStallCycles > c.Stores*maxStore {
		bad("store stall cycles %d exceed %d stores * %d bound", c.StoreStallCycles, c.Stores, maxStore)
	}
	if len(mem.inflight) > a.PrefetchQueue {
		bad("in-flight prefetches %d exceed queue %d", len(mem.inflight), a.PrefetchQueue)
	}
	// Per-prefetcher statistics must agree with the run counters and with
	// each other: every hardware fill is an Issued, a prediction can only
	// hit on a train, and no model issues more than maxHWDegree prefetches
	// (issued or suppressed) per train.
	hw := mem.hw.Stats()
	if c.HWPrefetches != hw.Issued {
		bad("HWPrefetches %d != %s prefetcher issued %d", c.HWPrefetches, mem.hw.Name(), hw.Issued)
	}
	if hw.Hits > hw.Trains {
		bad("hw hits %d > trains %d", hw.Hits, hw.Trains)
	}
	if hw.Allocs > hw.Trains {
		bad("hw allocs %d > trains %d", hw.Allocs, hw.Trains)
	}
	if hw.Issued+hw.Suppressed > maxHWDegree*hw.Trains {
		bad("hw issued %d + suppressed %d > %d * trains %d",
			hw.Issued, hw.Suppressed, maxHWDegree, hw.Trains)
	}
	return v
}

func (mem *Memory) tlbAccess(addr uint64, fill bool) (miss bool) {
	if mem.tlb.lookup(addr) != nil {
		return false
	}
	if fill {
		mem.tlb.fill(addr, 0)
	}
	return true
}

// overlapDiv discounts the visible wait for a line that is present but
// still in flight: the out-of-order core overlaps an *anticipated* miss
// (one with a prefetch or an earlier demand fill already outstanding) far
// better than a cold stall, since independent work keeps issuing while the
// line arrives. Cold misses are charged in full; in-flight remainders are
// charged at 1/overlapDiv.
const overlapDiv = 4

// extraWait returns the visible remaining wait for a present line that
// arrives at readyAt.
func extraWait(readyAt, now uint64) uint64 {
	if readyAt > now {
		return (readyAt - now) / overlapDiv
	}
	return 0
}

// Load simulates a demand load with no load-site identity (pc 0); see
// LoadAt. It exists for callers that have no static load instruction to
// name — memsim's own tests and synthetic sweeps. pc 0 is not neutral: a
// miss still trains the pc-blind hardware models (nextline, stream) and
// still counts in HWStats.Trains under every model, but the pc-indexed
// models (ipstride, tracker, multistride) cannot index the reference and
// learn nothing from it. Engine-driven loads must go through LoadAt with
// a real site pc, or those models silently under-train.
func (mem *Memory) Load(addr uint32, size uint32, now uint64) uint64 {
	return mem.LoadAt(addr, size, now, 0)
}

// LoadAt simulates a demand load of `size` bytes at addr issued at cycle
// `now` by the load site `pc` and returns the stall cycles. pc identifies
// the static load instruction (pc-indexed hardware prefetchers key their
// tables on it; 0 means "no stable site"). Accesses are assumed not to
// cross line boundaries (the VM's objects are 4/8-byte aligned and lines
// are >= 64 bytes).
func (mem *Memory) LoadAt(addr uint32, size uint32, now uint64, pc uint64) uint64 {
	mem.C.Loads++
	a := mem.Arch
	stall := a.L1HitCycles
	if mem.tlbAccess(uint64(addr), true) {
		mem.C.DTLBLoadMisses++
		stall += a.DTLBMissCycles
	}
	if l := mem.l1.lookup(uint64(addr)); l != nil {
		stall += extraWait(*l, now)
		mem.C.LoadStallCycles += stall
		return stall
	}
	mem.C.L1LoadMisses++
	mem.hw.Train(uint64(addr), pc, now)
	if l := mem.l2.lookup(uint64(addr)); l != nil {
		stall += a.L2HitCycles + extraWait(*l, now)
		mem.fillL1(uint64(addr), now+stall)
		mem.C.LoadStallCycles += stall
		return stall
	}
	mem.C.L2LoadMisses++
	stall += a.L2HitCycles + a.MemCycles
	mem.l2.fill(uint64(addr), now+stall)
	mem.fillL1(uint64(addr), now+stall)
	mem.C.LoadStallCycles += stall
	return stall
}

// Store simulates a demand store. Write-allocate, write-back; store misses
// stall 1/StoreFactor of the corresponding load penalty (store buffers hide
// most of it).
func (mem *Memory) Store(addr uint32, size uint32, now uint64) uint64 {
	mem.C.Stores++
	a := mem.Arch
	var stall uint64
	if mem.tlbAccess(uint64(addr), true) {
		mem.C.DTLBStoreMisses++
		stall += a.DTLBMissCycles
	}
	if l := mem.l1.lookup(uint64(addr)); l != nil {
		stall += extraWait(*l, now)
		stall /= a.StoreFactor
		mem.C.StoreStallCycles += stall
		return stall
	}
	mem.C.L1StoreMisses++
	if l := mem.l2.lookup(uint64(addr)); l != nil {
		stall += a.L2HitCycles + extraWait(*l, now)
		mem.fillL1(uint64(addr), now+stall)
		stall /= a.StoreFactor
		mem.C.StoreStallCycles += stall
		return stall
	}
	mem.C.L2StoreMisses++
	stall += a.L2HitCycles + a.MemCycles
	mem.l2.fill(uint64(addr), now+stall)
	mem.fillL1(uint64(addr), now+stall)
	stall /= a.StoreFactor
	mem.C.StoreStallCycles += stall
	return stall
}

// queueFull reports whether the prefetch queue is saturated at `now`,
// reclaiming completed entries.
func (mem *Memory) queueFull(now uint64) bool {
	live := mem.inflight[:0]
	for _, t := range mem.inflight {
		if t > now {
			live = append(live, t)
		}
	}
	mem.inflight = live
	return len(mem.inflight) >= mem.Arch.PrefetchQueue
}

// Prefetch simulates a software prefetch issued at cycle `now` and
// reports what became of it (the telemetry layer attributes outcomes to
// the emitting prefetch site through the return value).
//
// guarded selects the guarded-load mapping: it fills the DTLB (TLB priming,
// paper Sec. 3.3) and installs the line into both cache levels. A plain
// hardware prefetch is cancelled on a DTLB miss and fills only the
// machine's target level. No stall is charged — prefetches are
// asynchronous; their cost is modelled by the instruction issue cycles the
// engine charges plus queue occupancy.
func (mem *Memory) Prefetch(addr uint32, guarded bool, now uint64) telemetry.PrefetchOutcome {
	a := mem.Arch
	mem.C.PrefetchesIssued++
	if guarded {
		mem.C.PrefetchesGuarded++
	}
	if !guarded && mem.tlbAccess(uint64(addr), false) {
		// Hardware prefetch cancelled on DTLB miss.
		mem.C.PrefetchesDropped++
		return telemetry.PrefetchDroppedTLB
	}
	if mem.queueFull(now) {
		mem.C.PrefetchesDropped++
		return telemetry.PrefetchDroppedQueue
	}
	if guarded {
		mem.tlbAccess(uint64(addr), true)
	}
	// The hardware prefetcher trains on the L2 reference stream, which
	// includes software prefetch requests — the two mechanisms cooperate
	// (software prefetches of a dense object stream keep the hardware
	// stream alive, covering the lines the compile-time line-dedup filter
	// skipped). Software prefetches carry no load-site pc.
	mem.hw.Train(uint64(addr), 0, now)
	target := a.PrefetchTarget
	if guarded {
		target = arch.L1 // a real load fills L1
	}
	// Determine where the data currently lives to compute arrival time.
	inL1 := mem.l1.probe(uint64(addr)) != nil
	l2line := mem.l2.probe(uint64(addr))
	switch {
	case target == arch.L1 && inL1, target == arch.L2 && (l2line != nil || inL1):
		mem.C.PrefetchesUseless++
		return telemetry.PrefetchUseless
	}
	var lat uint64
	if l2line != nil {
		lat = a.L2HitCycles
		if *l2line > now {
			// The L2 copy is itself still in flight; data cannot reach the
			// L1 before it arrives.
			lat += *l2line - now
		}
	} else {
		lat = a.L2HitCycles + a.MemCycles
	}
	ready := now + lat
	if l2line == nil {
		mem.l2.fill(uint64(addr), ready)
	}
	if target == arch.L1 {
		mem.fillL1(uint64(addr), ready)
	}
	mem.inflight = append(mem.inflight, ready)
	return telemetry.PrefetchFetched
}

// LineSize returns the L1 line size (the profitability analysis granule).
func (mem *Memory) LineSize() uint32 { return mem.Arch.L1D.LineBytes }
