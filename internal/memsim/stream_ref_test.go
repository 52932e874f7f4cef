package memsim

import (
	"math/rand"
	"reflect"
	"testing"
)

// refStream is the stream detector as it was first written, kept as a
// reference model: a table of entries each stamped with a use tick, where
// a train scans every entry for its page and, failing that, allocates the
// last invalid slot or else the valid slot with the oldest stamp.
type refStream struct {
	hwBase
	streams [hwStreams]refStreamEntry
	useTick uint64
}

type refStreamEntry struct {
	page     uint64
	lastLine uint64
	delta    int64
	conf     int8
	lastUse  uint64
	valid    bool
}

func (p *refStream) Train(addr, pc, now uint64) {
	p.stats.Trains++
	page := addr >> p.pageShift
	line := addr >> p.lineShift
	p.useTick++

	var s *refStreamEntry
	victim := 0
	for i := range p.streams {
		e := &p.streams[i]
		if e.valid && e.page == page {
			s = e
			break
		}
		if !e.valid {
			victim = i
		} else if p.streams[victim].valid && e.lastUse < p.streams[victim].lastUse {
			victim = i
		}
	}
	if s == nil {
		p.streams[victim] = refStreamEntry{page: page, lastLine: line, lastUse: p.useTick, valid: true}
		p.stats.Allocs++
		return
	}
	s.lastUse = p.useTick
	d := int64(line) - int64(s.lastLine)
	s.lastLine = line
	if d == 0 {
		return
	}
	if d == s.delta {
		if s.conf < 4 {
			s.conf++
		}
		p.stats.Hits++
	} else {
		s.delta = d
		s.conf = 1
		return
	}
	if s.conf < 2 || s.delta > 2 || s.delta < -2 {
		return
	}
	p.issue(int64(line)+s.delta, page, now)
}

// TestStreamMatchesReference drives the stream detector and the reference
// model with the same seeded reference streams, each through its own fake
// port, and requires identical statistics and an identical sequence of L2
// fills. The streams mix short sequential and strided runs with page hops
// over a page pool larger than the table, so trains match existing
// streams, allocate free slots and evict the least recently trained one;
// Reset is exercised between rounds.
func TestStreamMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 99, 2026} {
		for _, pool := range []int{hwStreams / 2, hwStreams, hwStreams + 1, 3 * hwStreams} {
			got := newTestHW(DefaultHWModel, newFakePort(7, 12)).(*streamPrefetcher)
			want := &refStream{hwBase: hwBase{lineShift: 7, pageShift: 12}}
			rng := rand.New(rand.NewSource(seed))
			for round := 0; round < 3; round++ {
				// A fresh L2 per round, so prefetches keep landing.
				gotPort, wantPort := newFakePort(7, 12), newFakePort(7, 12)
				got.port, want.port = gotPort, wantPort
				page, line, stride := uint64(0), uint64(0), int64(1)
				for op := 0; op < 5000; op++ {
					switch r := rng.Intn(10); {
					case r < 2: // hop to another page of the pool
						page = uint64(rng.Intn(pool))
						line = uint64(rng.Intn(32))
						stride = int64(rng.Intn(5) - 2)
					case r < 3: // break the stride
						stride = int64(rng.Intn(7) - 3)
					}
					line = uint64(int64(line)+stride) & 31 // 32 lines of 128 B per 4 KiB page
					addr := page<<12 | line<<7 | uint64(rng.Intn(128))
					now := uint64(op)
					got.Train(addr, 0, now)
					want.Train(addr, 0, now)
					if got.Stats() != want.Stats() {
						t.Fatalf("seed %d pool %d round %d op %d: stats %+v, reference %+v",
							seed, pool, round, op, got.Stats(), want.Stats())
					}
				}
				if !reflect.DeepEqual(gotPort.fills, wantPort.fills) {
					t.Fatalf("seed %d pool %d round %d: fill sequences differ (%d vs %d fills)",
						seed, pool, round, len(gotPort.fills), len(wantPort.fills))
				}
				s := got.Stats()
				if s.Hits == 0 || s.Issued == 0 || (pool > hwStreams && s.Allocs <= hwStreams) {
					t.Fatalf("seed %d pool %d round %d: matches, fills or evictions not exercised: %+v",
						seed, pool, round, s)
				}
				got.Reset()
				want.streams, want.useTick, want.stats = [hwStreams]refStreamEntry{}, 0, HWStats{}
			}
		}
	}
}
