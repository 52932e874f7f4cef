package memsim

// lruList is an exact least-recently-used order over n slots: a circular
// doubly linked list of byte links, where list[0:n] belong to the slots and
// list[n] is the sentinel, whose next is the most recently used slot and
// whose prev the least recently used. Every operation is O(1).
//
// A reset list holds every slot, most recent first in descending index
// order, so slot 0 is the least recently used. A caller that puts each new
// entry in the slot take returns therefore fills slots 0, 1, ... n-1 in
// order — unused slots are always the least recent, and are taken before
// any entry is evicted — and from then on evicts the least recently used
// entry.
type lruList []lruLink

type lruLink struct{ prev, next uint8 }

// maxWays is the largest slot count an lruList can index (the sentinel
// takes index n).
const maxWays = 255

// reset puts the list in its initial order.
func (l lruList) reset() {
	n := len(l) - 1
	for w := range l {
		l[w] = lruLink{prev: uint8(w + 1), next: uint8(w - 1)}
	}
	l[0].next = uint8(n)
	l[n] = lruLink{prev: 0, next: uint8(n - 1)}
}

// touch makes slot w the most recently used. It unlinks w and relinks it
// after the sentinel with no special cases: the sentinel stands in for
// the missing neighbour of the head and the tail, and when w is already
// the head (always so in a one-slot list) relinking puts it back where it
// was.
func (l lruList) touch(w uint8) {
	s := uint8(len(l) - 1)
	e := &l[w]
	p, n := e.prev, e.next
	l[p].next = n
	l[n].prev = p
	h := l[s].next
	e.prev, e.next = s, h
	l[h].prev = w
	l[s].next = w
}

// take returns the least recently used slot, made the most recently used.
func (l lruList) take() uint8 {
	w := l[len(l)-1].prev
	l.touch(w)
	return w
}
