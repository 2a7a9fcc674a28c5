// Package lru is one fixed-capacity, fully-associative LRU set over
// int64 keys: the structure behind the simulator's data TLB (package
// cache) and the 3C classifier's shadow caches (package telemetry).
// Both ask on every access whether a key is among the N most recently
// used; the classifier also asks whether it was ever used, and one
// lookup answers both.
//
// The layout follows the source paper's advice: no hashing and no
// pointer chasing on the hot path. Keys map to slots through a paged
// direct index (4096 keys per 16 KiB page, allocated when a key in
// its range is first touched), and recency is a doubly linked list of
// int32 slot numbers in one node array. Once a key's page exists,
// Touch allocates nothing; Contains and Reset never do.
//
// Memory: index pages are never freed, since they also record which
// keys were evicted. Pages for keys in [0, 2^29) hang off a directory
// slice of 8 bytes per page up to the highest one touched; other keys
// go through a map. The simulator's keys are block and page numbers
// of addresses below memsys.AddrSpaceLimit (2^32) with blocks of at
// least 8 bytes, so they all take the directory.
package lru

const (
	pageBits = 12
	pageKeys = 1 << pageBits // keys per index page
	pageMask = pageKeys - 1
	// dirPages bounds the directory: keys below dirPages*pageKeys
	// (2^29) index through it, anything else through the far map.
	dirPages = 1 << 17
)

// State is what Touch found for a key before it made the key most
// recent.
type State uint8

const (
	// Absent: the key was never touched since New or Reset.
	Absent State = iota
	// Evicted: the key was touched before but has since been pushed
	// out by capacity.
	Evicted
	// Resident: the key was among the set's most recent keys.
	Resident
)

// String names the state.
func (s State) String() string {
	switch s {
	case Absent:
		return "absent"
	case Evicted:
		return "evicted"
	case Resident:
		return "resident"
	default:
		return "State(?)"
	}
}

// page is one index page. A cell holds 0 for an absent key, evicted
// for an evicted one, and slot+1 for a resident one.
type page [pageKeys]int32

const evicted = -1

// node is one slot of the recency list.
type node struct {
	key        int64
	prev, next int32 // slot numbers; -1 ends the list
}

// Set is a fully-associative LRU set of fixed capacity. The zero value
// is not usable; build one with New. Callers hold a Set by value, in
// the struct that uses it, and must not copy it once used: copies
// share their node array and index. A Set is not safe for concurrent
// use.
type Set struct {
	nodes      []node // len(nodes) == capacity
	n          int32  // slots in use
	head, tail int32  // most and least recently used slot, -1 when empty

	dir []*page         // index pages for keys in [0, 2^29)
	far map[int64]*page // index pages for every other key
}

// New returns an empty set holding at most capacity keys (at least
// one). The index page of keys [0, 4096) is allocated up front: the
// simulator's low addresses land there, so the first accesses of a
// run do not allocate.
func New(capacity int) Set {
	if capacity < 1 {
		capacity = 1
	}
	return Set{nodes: make([]node, capacity), head: -1, tail: -1, dir: []*page{new(page)}}
}

// Touch makes key the most recently used, evicting the least recently
// used key when the set is full and key is not resident, and returns
// key's state before the call.
func (s *Set) Touch(key int64) State {
	if s.head >= 0 && s.nodes[s.head].key == key {
		// Already most recent: runs of touches to one TLB page or one
		// block skip the index.
		return Resident
	}
	p := s.lookup(key >> pageBits)
	if p == nil {
		p = s.grow(key >> pageBits)
	}
	c := &p[key&pageMask]
	if v := *c; v > 0 {
		if slot := v - 1; slot != s.head {
			s.unlink(slot)
			s.pushFront(slot)
		}
		return Resident
	}
	st := Absent
	if *c == evicted {
		st = Evicted
	}
	var slot int32
	if int(s.n) < len(s.nodes) {
		slot = s.n
		s.n++
	} else {
		slot = s.tail
		s.unlink(slot)
		old := s.nodes[slot].key
		s.lookup(old >> pageBits)[old&pageMask] = evicted
	}
	s.nodes[slot].key = key
	*c = slot + 1
	s.pushFront(slot)
	return st
}

// Contains reports whether key is resident without changing recency.
func (s *Set) Contains(key int64) bool {
	p := s.lookup(key >> pageBits)
	return p != nil && p[key&pageMask] > 0
}

// Reset empties the set: every key is absent again, as after New.
// Index pages are cleared and kept, so a reset set refills without
// allocating.
func (s *Set) Reset() {
	s.n, s.head, s.tail = 0, -1, -1
	for _, p := range s.dir {
		if p != nil {
			*p = page{}
		}
	}
	for _, p := range s.far {
		*p = page{}
	}
}

// lookup returns page num, or nil when no key in it was ever touched.
func (s *Set) lookup(num int64) *page {
	if uint64(num) < uint64(len(s.dir)) {
		return s.dir[num]
	}
	if uint64(num) < dirPages {
		return nil
	}
	return s.far[num]
}

// grow allocates page num, which lookup did not find, extending the
// directory if needed.
func (s *Set) grow(num int64) *page {
	p := new(page)
	if uint64(num) < dirPages {
		if n := num + 1 - int64(len(s.dir)); n > 0 {
			s.dir = append(s.dir, make([]*page, n)...)
		}
		s.dir[num] = p
		return p
	}
	if s.far == nil {
		s.far = make(map[int64]*page)
	}
	s.far[num] = p
	return p
}

func (s *Set) unlink(slot int32) {
	nd := &s.nodes[slot]
	if nd.prev >= 0 {
		s.nodes[nd.prev].next = nd.next
	} else {
		s.head = nd.next
	}
	if nd.next >= 0 {
		s.nodes[nd.next].prev = nd.prev
	} else {
		s.tail = nd.prev
	}
}

func (s *Set) pushFront(slot int32) {
	nd := &s.nodes[slot]
	nd.prev, nd.next = -1, s.head
	if s.head >= 0 {
		s.nodes[s.head].prev = slot
	} else {
		s.tail = slot
	}
	s.head = slot
}
