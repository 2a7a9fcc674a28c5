package cache

import (
	"container/list"
	"math/rand"
	"testing"

	"ccl/internal/memsys"
)

// tlbTestConfig wraps a TLB geometry in a minimal one-level hierarchy
// so each access costs 1 (L1 hit) or 1+memLat (miss), plus the TLB
// penalty when the page is unmapped — making the translation charge
// directly observable in the returned cycle count.
func tlbTestConfig(tc TLBConfig) Config {
	return Config{
		Levels:     []LevelConfig{{Name: "L1", Size: 4096, Assoc: 4, BlockSize: 16, Latency: 1}},
		MemLatency: 10,
		TLB:        tc,
	}
}

// TestTLBTable drives the TLB through eviction and accounting
// scenarios. Each step is one demand load; wantMiss
// asserts whether the step paid the translation penalty.
func TestTLBTable(t *testing.T) {
	// ceil is the last mapped byte below the simulated 32-bit address
	// space ceiling.
	const ceil = memsys.Addr(memsys.AddrSpaceLimit - 8)
	cases := []struct {
		name  string
		tlb   TLBConfig
		steps []struct {
			addr     memsys.Addr
			wantMiss bool
		}
	}{
		{
			name: "capacity eviction, fully associative LRU",
			tlb:  TLBConfig{Entries: 2, PageSize: 4096, Penalty: 30},
			steps: []struct {
				addr     memsys.Addr
				wantMiss bool
			}{
				{0x0000, true},  // page 0 in
				{0x1000, true},  // page 1 in (full)
				{0x0008, false}, // page 0 refreshed: page 1 is now LRU
				{0x2000, true},  // page 2 evicts page 1
				{0x0010, false}, // page 0 survived
				{0x1008, true},  // page 1 was the victim
			},
		},
		{
			name: "page-size edge at the 32-bit ceiling",
			tlb:  TLBConfig{Entries: 4, PageSize: 8192, Penalty: 25},
			steps: []struct {
				addr     memsys.Addr
				wantMiss bool
			}{
				{ceil, true},            // highest page maps without overflow
				{ceil - 8, false},       // same page: no second walk
				{ceil - 8191, true},     // one byte into the page below
				{0x0000, true},          // page 0 is distinct from the top page
				{ceil - 4096, false},    // still inside the top two pages
				{memsys.Addr(0), false}, // page 0 still resident
			},
		},
		{
			name: "non-power-of-two page size uses the division path",
			tlb:  TLBConfig{Entries: 2, PageSize: 3000, Penalty: 20},
			steps: []struct {
				addr     memsys.Addr
				wantMiss bool
			}{
				{0, true},     // page 0: [0, 3000)
				{2999, false}, // last byte of page 0
				{3000, true},  // first byte of page 1
				{5999, false}, // last byte of page 1
				{6000, true},  // page 2 evicts page 0 (LRU)
				{1, true},     // page 0 re-walked
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := New(tlbTestConfig(tc.tlb))
			wantMisses := int64(0)
			for i, s := range tc.steps {
				cost := h.Access(s.addr, 1, Load)
				// Strip the cache component: 1 for a hit, 1+MemLatency
				// for a miss; what remains is the translation charge.
				base := cost % tc.tlb.Penalty
				if tc.tlb.Penalty == 0 || cost < tc.tlb.Penalty {
					base = cost
				}
				gotMiss := cost-base >= tc.tlb.Penalty
				if gotMiss != s.wantMiss {
					t.Fatalf("step %d (%v): cost %d, TLB miss = %v, want %v",
						i, s.addr, cost, gotMiss, s.wantMiss)
				}
				if s.wantMiss {
					wantMisses++
				}
			}
			st := h.Stats()
			if st.TLBMisses != wantMisses {
				t.Fatalf("TLBMisses = %d, want %d", st.TLBMisses, wantMisses)
			}
			if st.TLBAccesses != int64(len(tc.steps)) {
				t.Fatalf("TLBAccesses = %d, want %d", st.TLBAccesses, len(tc.steps))
			}
		})
	}
}

// TestTLBMissCostAccounting pins the exact cycle arithmetic: the
// penalty is charged once per unmapped page, stacks on top of the
// cache miss cost, and is attributed to stall cycles, not L1 hit
// cycles.
func TestTLBMissCostAccounting(t *testing.T) {
	h := New(tlbTestConfig(TLBConfig{Entries: 4, PageSize: 4096, Penalty: 30}))
	if got := h.Access(0x1000, 8, Load); got != 1+10+30 {
		t.Fatalf("cold page + cold block = %d cycles, want 41", got)
	}
	if got := h.Access(0x1000, 8, Load); got != 1 {
		t.Fatalf("warm page + warm block = %d cycles, want 1", got)
	}
	if got := h.Access(0x1800, 8, Load); got != 1+10 {
		t.Fatalf("warm page + cold block = %d cycles, want 11", got)
	}
	st := h.Stats()
	if st.TLBMisses != 1 {
		t.Fatalf("TLBMisses = %d, want 1", st.TLBMisses)
	}
	if st.L1HitCycles != 3 {
		t.Fatalf("L1HitCycles = %d, want 3 (1 per access)", st.L1HitCycles)
	}
	if st.LoadStallCycles != 40+10 {
		t.Fatalf("LoadStallCycles = %d, want 50", st.LoadStallCycles)
	}
}

// TestTLBValidate exercises the config error paths.
func TestTLBValidate(t *testing.T) {
	cases := []struct {
		name string
		tlb  TLBConfig
		ok   bool
	}{
		{"fully associative default", TLBConfig{Entries: 8, PageSize: 4096, Penalty: 10}, true},
		{"zero page size", TLBConfig{Entries: 8, Penalty: 10}, false},
		{"negative penalty", TLBConfig{Entries: 8, PageSize: 4096, Penalty: -1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.tlb.validate()
			if tc.ok && err != nil {
				t.Fatalf("validate() = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("validate() accepted an invalid config")
			}
		})
	}
}

// listTLB is the reference TLB the differential compares against: a
// container/list in recency order plus a map from page to element,
// the textbook LRU with nothing shared with package lru.
type listTLB struct {
	entries int
	order   *list.List // front = most recent page
	where   map[int64]*list.Element
}

func newListTLB(entries int) *listTLB {
	return &listTLB{entries: entries, order: list.New(), where: map[int64]*list.Element{}}
}

// access reports whether page was mapped, then makes it most recent.
func (r *listTLB) access(page int64) bool {
	if e, ok := r.where[page]; ok {
		r.order.MoveToFront(e)
		return true
	}
	if r.order.Len() == r.entries {
		lru := r.order.Back()
		delete(r.where, r.order.Remove(lru).(int64))
	}
	r.where[page] = r.order.PushFront(page)
	return false
}

func (r *listTLB) flush() {
	r.order.Init()
	clear(r.where)
}

// TestTLBDifferential replays random page streams through the §4.1
// machine and checks every access's cycles and the final TLBMisses
// against the list TLB. A twin hierarchy without a TLB supplies the
// cache's share of each access, so the remainder is the translation
// charge alone: 0 on a reference hit, the penalty on a miss. Streams
// mix a hot page set with a wider cold range, spanning accesses that
// translate two pages, stores, and an occasional Flush.
func TestTLBDifferential(t *testing.T) {
	cfg := PaperHierarchy()
	bare := cfg
	bare.TLB = TLBConfig{}
	page := cfg.TLB.PageSize
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h, b := New(cfg), New(bare)
		ref := newListTLB(cfg.TLB.Entries)
		hot := int64(8 + rng.Intn(80)) // below, near and above the 64 entries
		wantMisses := int64(0)
		for i := 0; i < 20_000; i++ {
			if rng.Intn(5000) == 0 {
				h.Flush()
				b.Flush()
				ref.flush()
			}
			pg := rng.Int63n(hot)
			if rng.Intn(4) == 0 {
				pg = rng.Int63n(4096) // cold: anywhere in a 32 MiB span
			}
			addr := memsys.Addr(pg*page + rng.Int63n(page))
			size := int64(1 + rng.Intn(8))
			if rng.Intn(50) == 0 {
				addr = memsys.Addr((pg+1)*page - 4) // straddles into the next page
				size = 8
			}
			kind := Load
			if rng.Intn(3) == 0 {
				kind = Store
			}
			want := int64(0)
			for p := int64(addr) / page; p <= (int64(addr)+size-1)/page; p++ {
				// Every covered block translates once; a page holds
				// many blocks, so only the first sub-access of a page
				// can miss.
				if !ref.access(p) {
					want += cfg.TLB.Penalty
					wantMisses++
				}
			}
			got := h.Access(addr, size, kind) - b.Access(addr, size, kind)
			if got != want {
				t.Fatalf("seed %d access %d (%v+%d, page %d): translation charge %d, want %d",
					seed, i, addr, size, pg, got, want)
			}
		}
		if st := h.Stats(); st.TLBMisses != wantMisses {
			t.Fatalf("seed %d: TLBMisses = %d, want %d", seed, st.TLBMisses, wantMisses)
		}
	}
}
