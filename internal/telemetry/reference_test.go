package telemetry

import (
	"fmt"

	"ccl/internal/cache"
	"ccl/internal/memsys"
)

// The naive reference classifier: the collector's original shadow
// cache, a map plus a pointer-linked recency list, beside a map of
// every block ever referenced. It shares no code with package lru, so
// the property and fuzz tests can hold the collector's per-level class
// counts and every access's LastLLMissClass to it.

// refEntry is one node of the reference shadow's recency list.
type refEntry struct {
	block      int64
	prev, next *refEntry
}

// refLRU is a fixed-capacity fully-associative LRU over block numbers.
type refLRU struct {
	capacity int
	entries  map[int64]*refEntry
	head     *refEntry // most recently used
	tail     *refEntry // least recently used
}

func newRefLRU(capacity int) *refLRU {
	if capacity < 1 {
		capacity = 1
	}
	return &refLRU{capacity: capacity, entries: map[int64]*refEntry{}}
}

func (s *refLRU) contains(block int64) bool {
	_, ok := s.entries[block]
	return ok
}

// touch makes block the most recently used entry, inserting it (and
// evicting the LRU entry if full) when absent.
func (s *refLRU) touch(block int64) {
	if e, ok := s.entries[block]; ok {
		s.unlink(e)
		s.pushFront(e)
		return
	}
	if len(s.entries) >= s.capacity {
		lru := s.tail
		s.unlink(lru)
		delete(s.entries, lru.block)
	}
	e := &refEntry{block: block}
	s.entries[block] = e
	s.pushFront(e)
}

func (s *refLRU) unlink(e *refEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *refLRU) pushFront(e *refEntry) {
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

// refLevel is one level of the reference classifier.
type refLevel struct {
	blockSize int64
	shadow    *refLRU
	seen      map[int64]struct{}
	classes   [NumClasses]int64
}

// refClassifier classifies demand misses by Hill's 3C definition.
type refClassifier struct {
	levels  []*refLevel
	lastLL  bool
	lastCls MissClass
}

func newRefClassifier(cfg cache.Config) *refClassifier {
	r := &refClassifier{}
	for _, lc := range cfg.Levels {
		r.levels = append(r.levels, &refLevel{
			blockSize: lc.BlockSize,
			shadow:    newRefLRU(int(lc.Size / lc.BlockSize)),
			seen:      map[int64]struct{}{},
		})
	}
	return r
}

func (r *refClassifier) onAccess(addr memsys.Addr, hitLevel int) {
	r.lastLL = false
	for i, lv := range r.levels {
		if hitLevel != -1 && i > hitLevel {
			break
		}
		blk := int64(addr) / lv.blockSize
		if i != hitLevel {
			cls := Capacity
			if _, ok := lv.seen[blk]; !ok {
				cls = Compulsory
			} else if lv.shadow.contains(blk) {
				cls = Conflict
			}
			lv.classes[cls]++
			if i == len(r.levels)-1 {
				r.lastLL, r.lastCls = true, cls
			}
		}
		lv.seen[blk] = struct{}{}
		lv.shadow.touch(blk)
	}
}

// refTee forwards every event to a Collector and feeds the reference
// the same demand accesses, checking after each one that the two agree
// on LastLLMissClass. The first disagreement is kept in err.
type refTee struct {
	col      *Collector
	ref      *refClassifier
	accesses int
	err      error
}

func (t *refTee) OnAccess(addr memsys.Addr, kind cache.AccessKind, hitLevel int) {
	t.col.OnAccess(addr, kind, hitLevel)
	t.ref.onAccess(addr, hitLevel)
	cls, ll := t.col.LastLLMissClass()
	if t.err == nil && (ll != t.ref.lastLL || (ll && cls != t.ref.lastCls)) {
		t.err = fmt.Errorf("access %d (%v, hit level %d): LastLLMissClass = (%v, %v), reference (%v, %v)",
			t.accesses, addr, hitLevel, cls, ll, t.ref.lastCls, t.ref.lastLL)
	}
	t.accesses++
}

func (t *refTee) OnEvict(level int, addr memsys.Addr, dirty bool) {
	t.col.OnEvict(level, addr, dirty)
}

func (t *refTee) OnFill(level int, addr memsys.Addr, prefetch bool) {
	t.col.OnFill(level, addr, prefetch)
}

func (t *refTee) OnInvalidate(addr memsys.Addr, span int64) {
	t.col.OnInvalidate(addr, span)
}
