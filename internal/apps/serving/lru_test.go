package serving

import (
	"fmt"
	"math/rand"
	"testing"

	"ccl/internal/machine"
	"ccl/internal/shrink"
)

func lruVariants() []LRUConfig {
	return []LRUConfig{
		{Split: false, Placement: LRUMalloc},
		{Split: false, Placement: LRUCCMalloc},
		{Split: true, Placement: LRUMalloc},
		{Split: true, Placement: LRUCCMalloc},
	}
}

type lruOp struct {
	Kind byte // 0 get, 1 put
	Key  uint32
	Val  int64
}

// lruModel is the reference: a map plus an explicit MRU-first recency
// order with the same eviction rule (insert at capacity evicts the
// last key).
type lruModel struct {
	cap   int
	vals  map[uint32]int64
	order []uint32 // MRU first
}

func newLRUModel(cap int) *lruModel {
	return &lruModel{cap: cap, vals: map[uint32]int64{}}
}

func (m *lruModel) touch(key uint32) {
	for i, k := range m.order {
		if k == key {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	m.order = append([]uint32{key}, m.order...)
}

func (m *lruModel) get(key uint32) (int64, bool) {
	v, ok := m.vals[key]
	if ok {
		m.touch(key)
	}
	return v, ok
}

func (m *lruModel) put(key uint32, val int64) {
	if _, ok := m.vals[key]; !ok && len(m.order) >= m.cap {
		victim := m.order[len(m.order)-1]
		m.order = m.order[:len(m.order)-1]
		delete(m.vals, victim)
	}
	m.vals[key] = val
	m.touch(key)
}

// lruMismatch replays ops against a fresh cache and the reference
// model, comparing results, exact MRU order, and invariants after
// every op. Capacity 8 with a 32-slot index forces eviction churn and
// tombstone-purge rebuilds.
func lruMismatch(cfg LRUConfig, ops []lruOp) string {
	m := machine.NewScaled(16)
	cfg.Capacity = 8
	cfg.IndexSlots = 32
	c, err := NewLRU(m, cfg)
	if err != nil {
		return fmt.Sprintf("NewLRU: %v", err)
	}
	model := newLRUModel(8)
	for i, op := range ops {
		switch op.Kind % 2 {
		case 0:
			got, ok := c.Get(op.Key)
			want, wok := model.get(op.Key)
			if ok != wok || (ok && got != want) {
				return fmt.Sprintf("op %d: Get(%d) = (%d, %v), model (%d, %v)", i, op.Key, got, ok, want, wok)
			}
		case 1:
			if err := c.Put(op.Key, op.Val); err != nil {
				return fmt.Sprintf("op %d: Put(%d): %v", i, op.Key, err)
			}
			model.put(op.Key, op.Val)
		}
		if c.Len() != int64(len(model.order)) {
			return fmt.Sprintf("op %d: Len %d, model %d", i, c.Len(), len(model.order))
		}
		entries := c.entryAddrs()
		if len(entries) != len(model.order) {
			return fmt.Sprintf("op %d: list holds %d entries, model %d", i, len(entries), len(model.order))
		}
		for j, e := range entries {
			if key := c.arena.Load32(e.Add(lruOffKey)); key != model.order[j] {
				return fmt.Sprintf("op %d: recency position %d holds key %d, model %d", i, j, key, model.order[j])
			}
		}
		if err := c.CheckInvariants(); err != nil {
			return fmt.Sprintf("op %d: %v", i, err)
		}
	}
	return ""
}

// TestLRUPropertyModelEquivalence checks every variant against the
// reference model — including exact eviction order — under random op
// sequences, shrinking failures.
func TestLRUPropertyModelEquivalence(t *testing.T) {
	for _, cfg := range lruVariants() {
		t.Run(fmt.Sprintf("split=%v-%v", cfg.Split, cfg.Placement), func(t *testing.T) {
			gen := func(rng *rand.Rand) []lruOp {
				ops := make([]lruOp, 150+rng.Intn(100))
				for i := range ops {
					ops[i] = lruOp{Kind: byte(rng.Intn(2)), Key: uint32(rng.Intn(24) + 1), Val: rng.Int63()}
				}
				return ops
			}
			fails := func(ops []lruOp) bool { return lruMismatch(cfg, ops) != "" }
			shrink.Check(t, 0x11c0+int64(cfg.Placement)*2+b2i(cfg.Split), 20, gen, fails)
		})
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestLRURebuildsHappen pins the tombstone-purge path: heavy eviction
// churn through a tight index must trigger at least one rebuild, and
// the cache must stay consistent across it.
func TestLRURebuildsHappen(t *testing.T) {
	m := machine.NewScaled(16)
	c, err := NewLRU(m, LRUConfig{Capacity: 8, IndexSlots: 32})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint32(1); k <= 200; k++ {
		if err := c.Put(k, int64(k)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Rebuilds == 0 {
		t.Fatalf("no index rebuilds after %d evictions", st.Evictions)
	}
	if st.Evictions != st.Inserts-st.Len {
		t.Fatalf("evictions %d, want inserts-len = %d", st.Evictions, st.Inserts-st.Len)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLRUTypedErrors covers configuration rejection.
func TestLRUTypedErrors(t *testing.T) {
	m := machine.NewScaled(16)
	if _, err := NewLRU(m, LRUConfig{Capacity: 0}); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := NewLRU(m, LRUConfig{Capacity: 8, IndexSlots: 24}); err == nil {
		t.Fatal("non-power-of-two index accepted")
	}
	if _, err := NewLRU(m, LRUConfig{Capacity: 8, IndexSlots: 8}); err == nil {
		t.Fatal("index smaller than 2*capacity accepted")
	}
	if _, err := NewLRU(m, LRUConfig{Capacity: 8, Placement: LRUPlacement(9)}); err == nil {
		t.Fatal("unknown placement accepted")
	}
}
