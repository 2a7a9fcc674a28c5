package serving

import (
	"fmt"
	"math/rand"
	"testing"

	"ccl/internal/machine"
	"ccl/internal/shrink"
	"ccl/internal/telemetry"
)

// kvVariants enumerates every valid layout x placement combination.
func kvVariants() []KVConfig {
	return []KVConfig{
		{Layout: KVAoS, Placement: KVMalloc},
		{Layout: KVAoS, Placement: KVCCMalloc},
		{Layout: KVSplit, Placement: KVMalloc},
		{Layout: KVSplit, Placement: KVCCMalloc},
		{Layout: KVSplit, Placement: KVColored},
	}
}

type kvOp struct {
	Kind byte // 0 get, 1 put, 2 delete
	Key  uint32
	Val  int64
}

// kvMismatch replays ops against a fresh store and a Go map,
// returning a description of the first divergence ("" when
// equivalent). The key range is tiny so probe chains collide, deletes
// leave tombstones, and the 8-slot initial table resizes repeatedly.
func kvMismatch(cfg KVConfig, ops []kvOp) string {
	m := machine.NewScaled(16)
	cfg.Slots = 8
	kv, err := NewKV(m, cfg)
	if err != nil {
		return fmt.Sprintf("NewKV: %v", err)
	}
	model := map[uint32]int64{}
	for i, op := range ops {
		switch op.Kind % 3 {
		case 0:
			got, ok := kv.Get(op.Key)
			want, wok := model[op.Key]
			if ok != wok || (ok && got != want) {
				return fmt.Sprintf("op %d: Get(%d) = (%d, %v), model (%d, %v)", i, op.Key, got, ok, want, wok)
			}
		case 1:
			if err := kv.Put(op.Key, op.Val); err != nil {
				return fmt.Sprintf("op %d: Put(%d): %v", i, op.Key, err)
			}
			model[op.Key] = op.Val
		case 2:
			ok := kv.Delete(op.Key)
			_, wok := model[op.Key]
			if ok != wok {
				return fmt.Sprintf("op %d: Delete(%d) = %v, model %v", i, op.Key, ok, wok)
			}
			delete(model, op.Key)
		}
		if kv.Len() != int64(len(model)) {
			return fmt.Sprintf("op %d: Len %d, model %d", i, kv.Len(), len(model))
		}
		if err := kv.CheckInvariants(); err != nil {
			return fmt.Sprintf("op %d: %v", i, err)
		}
	}
	for k, want := range model {
		if got, ok := kv.Get(k); !ok || got != want {
			return fmt.Sprintf("final: Get(%d) = (%d, %v), model %d", k, got, ok, want)
		}
	}
	return ""
}

// TestKVPropertyModelEquivalence checks every variant against the Go
// map model under random op sequences, shrinking failures.
func TestKVPropertyModelEquivalence(t *testing.T) {
	for _, cfg := range kvVariants() {
		cfg := cfg
		t.Run(fmt.Sprintf("%v-%v", cfg.Layout, cfg.Placement), func(t *testing.T) {
			gen := func(rng *rand.Rand) []kvOp {
				ops := make([]kvOp, 150+rng.Intn(100))
				for i := range ops {
					ops[i] = kvOp{Kind: byte(rng.Intn(3)), Key: uint32(rng.Intn(48) + 1), Val: rng.Int63()}
				}
				return ops
			}
			fails := func(ops []kvOp) bool { return kvMismatch(cfg, ops) != "" }
			shrink.Check(t, 0x5eed0+int64(cfg.Layout)*10+int64(cfg.Placement), 20, gen, fails)
		})
	}
}

// TestKVColoredStripeDiscipline asserts every live header group of a
// colored store lives entirely in the hot stripe and every payload
// group entirely in the cold remainder, across resizes. The segment
// allocators' claimed extents legitimately span both stripes (grow
// claims whole way periods and skips the wrong-color gaps), so the
// discipline holds for allocated groups, not raw extents.
func TestKVColoredStripeDiscipline(t *testing.T) {
	m := machine.NewScaled(16)
	kv, err := NewKV(m, KVConfig{Layout: KVSplit, Placement: KVColored, Slots: 8})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint32(1); k <= 300; k++ {
		if err := kv.Put(k, int64(k)); err != nil {
			t.Fatal(err)
		}
	}
	if kv.Stats().Resizes == 0 {
		t.Fatal("expected at least one resize")
	}
	col, ok := kv.Coloring()
	if !ok {
		t.Fatal("colored store reports no coloring")
	}
	if len(kv.region.Extents()) == 0 {
		t.Fatal("colored store reports no claimed extents")
	}
	for g, a := range kv.tab.groups {
		for b := a; b < a.Add(kv.groupBytes); b = b.Add(col.BlockSize) {
			if !col.IsHot(b) {
				t.Fatalf("header group %d block %v in cold stripe", g, b)
			}
		}
	}
	for g, a := range kv.tab.cold {
		for b := a; b < a.Add(kv.coldGroupBytes); b = b.Add(col.BlockSize) {
			if col.IsHot(b) {
				t.Fatalf("payload group %d block %v in hot stripe", g, b)
			}
		}
	}
	if err := kv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestKVColoredHeadersOutgrowHotBudget pins what the goldens don't:
// header groups are placed hot however far the table outgrows the
// region's hot budget — every probe reads headers, so a header group
// in the cold stripe would conflict with payload traffic. 8,192 slots
// carry 64 KiB of headers against the scaled L2's 32 KiB budget.
func TestKVColoredHeadersOutgrowHotBudget(t *testing.T) {
	kv, err := NewKV(machine.NewScaled(16), KVConfig{Layout: KVSplit, Placement: KVColored, Slots: 8192})
	if err != nil {
		t.Fatal(err)
	}
	col, _ := kv.Coloring()
	headers := int64(len(kv.tab.groups)) * kv.groupBytes
	if budget := col.HotSets * int64(col.Assoc) * col.BlockSize; headers <= budget || kv.region.HotLeft() != 0 {
		t.Fatalf("%d header bytes against a %d-byte budget (%d left): the case needs headers past the budget",
			headers, budget, kv.region.HotLeft())
	}
	for k := uint32(1); k <= 6000; k++ {
		if err := kv.Put(k, int64(k)); err != nil {
			t.Fatal(err)
		}
	}
	if kv.Stats().Resizes != 0 {
		t.Fatal("the table resized; the case wants the 8,192-slot table")
	}
	if err := kv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestKVRegionRegistrationNonOverlap registers every variant's
// regions (RegisterRange panics on overlap, so completing is the
// assertion) and checks the registered extents cover the table.
func TestKVRegionRegistrationNonOverlap(t *testing.T) {
	for _, cfg := range kvVariants() {
		cfg.Slots = 64
		m := machine.NewScaled(16)
		kv, err := NewKV(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k := uint32(1); k <= 40; k++ {
			if err := kv.Put(k, int64(k)); err != nil {
				t.Fatal(err)
			}
		}
		col := telemetry.Attach(m.Cache)
		hot := kv.RegisterRegions(col.Regions(), "kv")
		if _, ok := kv.Get(7); !ok {
			t.Fatal("key 7 missing")
		}
		rep := col.Report()
		found := false
		for _, r := range rep.Regions {
			if r.Label == hot && r.Accesses > 0 {
				found = true
			}
		}
		if !found {
			t.Fatalf("%v-%v: hot region %q saw no traffic", cfg.Layout, cfg.Placement, hot)
		}
	}
}

// TestKVFullTable drives a store into the no-empty-slot guard: with
// growth made impossible the put must fail typed, not hang.
func TestKVTypedErrors(t *testing.T) {
	m := machine.NewScaled(16)
	if _, err := NewKV(m, KVConfig{Slots: 7}); err == nil {
		t.Fatal("non-power-of-two slots accepted")
	}
	if _, err := NewKV(m, KVConfig{Layout: KVAoS, Placement: KVColored, Slots: 8}); err == nil {
		t.Fatal("colored AoS accepted")
	}
}
