package lru

import (
	"container/list"
	"encoding/binary"
	"math/rand"
	"testing"
)

// op is one step of a table case: Touch key (expecting want), Contains
// key (expecting resident), or Reset.
type op struct {
	key             int64
	contains, reset bool
	want            State
	resident        bool
}

func touch(key int64, want State) op    { return op{key: key, want: want} }
func probe(key int64, resident bool) op { return op{key: key, contains: true, resident: resident} }

var reset = op{reset: true}

func TestSetTable(t *testing.T) {
	const edge = pageKeys // first key of the second index page
	cases := []struct {
		name     string
		capacity int
		ops      []op
	}{
		{"capacity 1", 1, []op{
			touch(7, Absent), probe(7, true),
			touch(7, Resident),
			touch(8, Absent), probe(7, false), probe(8, true),
			touch(7, Evicted), probe(8, false),
		}},
		{"capacity below 1 floors at 1", 0, []op{
			touch(7, Absent), probe(7, true),
			touch(8, Absent), probe(7, false),
		}},
		{"eviction order is least recently used", 3, []op{
			touch(1, Absent), touch(2, Absent), touch(3, Absent),
			touch(1, Resident), // order now 1, 3, 2
			touch(4, Absent),   // evicts 2
			probe(2, false), probe(1, true), probe(3, true), probe(4, true),
			touch(5, Absent), // evicts 3
			probe(3, false),
			touch(2, Evicted), // evicts 1
			probe(1, false), probe(4, true),
		}},
		{"Contains does not refresh recency", 2, []op{
			touch(1, Absent), touch(2, Absent),
			probe(1, true), probe(1, true), // 1 stays LRU
			touch(3, Absent), // evicts 1, not 2
			probe(1, false), probe(2, true),
			probe(99, false), // a never-touched page allocates nothing
		}},
		{"Reset forgets residency and history", 2, []op{
			touch(1, Absent), touch(2, Absent), touch(3, Absent),
			reset,
			probe(2, false), probe(3, false),
			touch(1, Absent), touch(3, Absent), touch(2, Absent),
			probe(1, false), // capacity still 2 after Reset
		}},
		{"keys on both sides of a page edge", 2, []op{
			touch(edge-1, Absent), touch(edge, Absent),
			probe(edge-1, true), probe(edge, true),
			touch(edge+1, Absent), // evicts edge-1 from the first page
			probe(edge-1, false), probe(edge, true),
			touch(edge-1, Evicted),
			touch(0, Absent),
		}},
		{"keys at and above 2^32 and beyond the directory", 2, []op{
			touch(1<<32, Absent), touch(1<<32+1, Absent),
			touch(1<<62, Absent), // evicts 2^32 through the far index
			probe(1<<32, false), probe(1<<32+1, true), probe(1<<62, true),
			touch(1<<32, Evicted),
			touch(dirPages*pageKeys, Absent), // first key past the directory
			probe(1<<62, false),
			touch(dirPages*pageKeys-1, Absent), // last key inside it
			reset,
			touch(1<<32, Absent), touch(1<<62, Absent),
		}},
		{"negative keys", 1, []op{
			touch(-1, Absent), touch(-pageKeys-1, Absent),
			touch(-1, Evicted),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(tc.capacity)
			for i, o := range tc.ops {
				switch {
				case o.reset:
					s.Reset()
					if s.n != 0 {
						t.Fatalf("op %d: %d keys resident after Reset", i, s.n)
					}
				case o.contains:
					if got := s.Contains(o.key); got != o.resident {
						t.Fatalf("op %d: Contains(%d) = %v, want %v", i, o.key, got, o.resident)
					}
				default:
					if got := s.Touch(o.key); got != o.want {
						t.Fatalf("op %d: Touch(%d) = %v, want %v", i, o.key, got, o.want)
					}
				}
			}
		})
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{Absent: "absent", Evicted: "evicted", Resident: "resident", 9: "State(?)"} {
		if got := st.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", uint8(st), got, want)
		}
	}
}

// listSet is the reference the differential compares against: a
// container/list in recency order, a map from key to element, and a
// map of every key ever touched since the last reset.
type listSet struct {
	capacity int
	order    *list.List // front = most recent key
	where    map[int64]*list.Element
	seen     map[int64]bool
}

func newListSet(capacity int) *listSet {
	if capacity < 1 {
		capacity = 1
	}
	return &listSet{capacity: capacity, order: list.New(), where: map[int64]*list.Element{}, seen: map[int64]bool{}}
}

func (r *listSet) touch(key int64) State {
	if e, ok := r.where[key]; ok {
		r.order.MoveToFront(e)
		return Resident
	}
	st := Absent
	if r.seen[key] {
		st = Evicted
	}
	if r.order.Len() == r.capacity {
		delete(r.where, r.order.Remove(r.order.Back()).(int64))
	}
	r.where[key] = r.order.PushFront(key)
	r.seen[key] = true
	return st
}

func (r *listSet) reset() {
	r.order.Init()
	clear(r.where)
	clear(r.seen)
}

// diffOps drives a Set and the list reference through the same
// operations decoded from data (3 bytes each: an opcode and a 16-bit
// key selector) and reports the first disagreement. Keys come from a
// few regions — dense near zero, straddling a page edge, around 2^32
// and far above the directory — so pages, the far index and eviction
// all get exercised by small inputs.
func diffOps(t *testing.T, capacity int, data []byte) {
	t.Helper()
	s, ref := New(capacity), newListSet(capacity)
	for i := 0; i+3 <= len(data); i += 3 {
		code := data[i]
		sel := int64(binary.LittleEndian.Uint16(data[i+1:]))
		var key int64
		switch code >> 6 {
		case 0:
			key = sel % 64
		case 1:
			key = 3*pageKeys - 32 + sel%64
		case 2:
			key = 1<<32 + sel%48
		default:
			key = 1<<40 + int64(sel%4)*pageKeys + sel%16
		}
		switch {
		case code&0x3f == 0:
			s.Reset()
			ref.reset()
		case code&0x3f < 8:
			if got, want := s.Contains(key), ref.where[key] != nil; got != want {
				t.Fatalf("op %d: Contains(%d) = %v, reference %v", i/3, key, got, want)
			}
		default:
			if got, want := s.Touch(key), ref.touch(key); got != want {
				t.Fatalf("op %d: Touch(%d) = %v, reference %v", i/3, key, got, want)
			}
		}
		if int(s.n) != ref.order.Len() {
			t.Fatalf("op %d: %d keys resident, reference %d", i/3, s.n, ref.order.Len())
		}
	}
	// The final recency order must match too: pushing fresh keys into
	// the full set must evict the reference's LRU key each time.
	for j := 0; j < ref.capacity; j++ {
		fresh := int64(1)<<50 + int64(j)
		victim := int64(-1)
		if ref.order.Len() == ref.capacity {
			victim = ref.order.Back().Value.(int64)
		}
		if got, want := s.Touch(fresh), ref.touch(fresh); got != want {
			t.Fatalf("drain %d: Touch(%d) = %v, reference %v", j, fresh, got, want)
		}
		if victim >= 0 && s.Contains(victim) {
			t.Fatalf("drain %d: key %d survived; the reference evicted it as least recent", j, victim)
		}
	}
}

// TestSetDifferential runs random operation streams, at capacities
// from 1 to well above the key pool, against the list reference.
func TestSetDifferential(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 3*5_000)
		rng.Read(data)
		for _, capacity := range []int{1, 2, 7, 64, 300} {
			diffOps(t, capacity, data)
		}
	}
}

// FuzzSetDifferential is TestSetDifferential over fuzz-chosen
// capacities and operation streams.
func FuzzSetDifferential(f *testing.F) {
	f.Add(uint8(1), []byte{9, 1, 0, 9, 2, 0, 9, 1, 0, 1, 1, 0})
	f.Add(uint8(3), []byte{0x49, 0, 0, 0x89, 5, 0, 0xc9, 7, 0, 0x40, 0, 0, 0xc9, 7, 0, 0x89, 5, 0})
	f.Add(uint8(64), []byte{0x4a, 0x1f, 0, 0x4a, 0x20, 0, 0x0a, 1, 0, 0x02, 1, 0})
	f.Fuzz(func(t *testing.T, capacity uint8, data []byte) {
		diffOps(t, int(capacity), data)
	})
}

// TestTouchNoAllocs pins that a warm set — every index page it will
// use already allocated — allocates nothing on Touch, Contains or
// Reset.
func TestTouchNoAllocs(t *testing.T) {
	s := New(64)
	keys := make([]int64, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range keys {
		keys[i] = rng.Int63n(3 * pageKeys)
		s.Touch(keys[i])
	}
	s.Touch(1 << 40)
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		s.Touch(keys[i&1023])
		s.Contains(keys[(i+7)&1023])
		s.Touch(1 << 40)
		i++
	}); n != 0 {
		t.Fatalf("warm Touch/Contains allocate %.1f times per run", n)
	}
	if n := testing.AllocsPerRun(10, s.Reset); n != 0 {
		t.Fatalf("Reset allocates %.1f times per run", n)
	}
}
