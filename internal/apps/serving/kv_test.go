package serving

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ccl/internal/cclerr"
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
	Put bool // a Put, else a Get
	Key uint32
	Val int64
}

// kvModelSlots is the model test's table: 16 slots under a 24-key
// range, so probe chains collide and the table fills.
const kvModelSlots = 16

// kvMismatch replays ops against a fresh store and a Go map,
// returning a description of the first divergence ("" when
// equivalent). The model holds at most kvModelSlots-1 keys: a Put of
// a new key into a full table must fail with ErrOutOfMemory and
// change nothing.
func kvMismatch(cfg KVConfig, ops []kvOp) string {
	m := machine.NewScaled(16)
	cfg.Slots = kvModelSlots
	kv, err := NewKV(m, cfg)
	if err != nil {
		return fmt.Sprintf("NewKV: %v", err)
	}
	model := map[uint32]int64{}
	for i, op := range ops {
		if !op.Put {
			got, ok := kv.Get(op.Key)
			want, wok := model[op.Key]
			if ok != wok || (ok && got != want) {
				return fmt.Sprintf("op %d: Get(%d) = (%d, %v), model (%d, %v)", i, op.Key, got, ok, want, wok)
			}
		} else {
			_, resident := model[op.Key]
			full := !resident && len(model) == kvModelSlots-1
			err := kv.Put(op.Key, op.Val)
			switch {
			case full && !errors.Is(err, cclerr.ErrOutOfMemory):
				return fmt.Sprintf("op %d: Put(%d) into a full table: %v, want ErrOutOfMemory", i, op.Key, err)
			case !full && err != nil:
				return fmt.Sprintf("op %d: Put(%d): %v", i, op.Key, err)
			case !full:
				model[op.Key] = op.Val
			}
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
		t.Run(fmt.Sprintf("%v-%v", cfg.Layout, cfg.Placement), func(t *testing.T) {
			gen := func(rng *rand.Rand) []kvOp {
				ops := make([]kvOp, 150+rng.Intn(100))
				for i := range ops {
					ops[i] = kvOp{Put: rng.Intn(2) == 0, Key: uint32(rng.Intn(24) + 1), Val: rng.Int63()}
				}
				return ops
			}
			fails := func(ops []kvOp) bool { return kvMismatch(cfg, ops) != "" }
			shrink.Check(t, 0x5eed0+int64(cfg.Layout)*10+int64(cfg.Placement), 20, gen, fails)
		})
	}
}

// TestKVColoredStripeDiscipline asserts every header group of a
// colored store lives entirely in the hot stripe and every payload
// group entirely in the cold remainder. The segment allocators'
// claimed extents legitimately span both stripes (grow claims whole
// way periods and skips the wrong-color gaps), so the discipline
// holds for allocated groups, not raw extents.
func TestKVColoredStripeDiscipline(t *testing.T) {
	m := machine.NewScaled(16)
	kv, err := NewKV(m, KVConfig{Layout: KVSplit, Placement: KVColored, Slots: 512})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint32(1); k <= 300; k++ {
		if err := kv.Put(k, int64(k)); err != nil {
			t.Fatal(err)
		}
	}
	col, ok := kv.Coloring()
	if !ok {
		t.Fatal("colored store reports no coloring")
	}
	if len(kv.region.Extents()) == 0 {
		t.Fatal("colored store reports no claimed extents")
	}
	for g, a := range kv.groups {
		for b := a; b < a.Add(kv.groupBytes); b = b.Add(col.BlockSize) {
			if !col.IsHot(b) {
				t.Fatalf("header group %d block %v in cold stripe", g, b)
			}
		}
	}
	for g, a := range kv.cold {
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
	headers := int64(len(kv.groups)) * kv.groupBytes
	if budget := col.HotSets * int64(col.Assoc) * col.BlockSize; headers <= budget || kv.region.HotLeft() != 0 {
		t.Fatalf("%d header bytes against a %d-byte budget (%d left): the case needs headers past the budget",
			headers, budget, kv.region.HotLeft())
	}
	for k := uint32(1); k <= 6000; k++ {
		if err := kv.Put(k, int64(k)); err != nil {
			t.Fatal(err)
		}
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

// TestKVTypedErrors: invalid configurations fail NewKV.
func TestKVTypedErrors(t *testing.T) {
	m := machine.NewScaled(16)
	if _, err := NewKV(m, KVConfig{Slots: 7}); err == nil {
		t.Fatal("non-power-of-two slots accepted")
	}
	if _, err := NewKV(m, KVConfig{Layout: KVAoS, Placement: KVColored, Slots: 8}); err == nil {
		t.Fatal("colored AoS accepted")
	}
}

// TestKVFixedCapacity pins the fixed-capacity contract on both
// layouts and placements the benchmarks race: a table of n slots
// takes exactly n-1 distinct keys, since one empty slot must remain
// to end every probe, and the next new key fails with ErrOutOfMemory
// and changes nothing. Overwrites of resident keys still succeed.
func TestKVFixedCapacity(t *testing.T) {
	for _, cfg := range []KVConfig{
		{Layout: KVAoS, Placement: KVMalloc},
		{Layout: KVSplit, Placement: KVColored},
	} {
		for _, slots := range []int64{8, 64} {
			cfg.Slots = slots
			name := fmt.Sprintf("%v-%v/%d", cfg.Layout, cfg.Placement, slots)
			kv, err := NewKV(machine.NewScaled(16), cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Keys spaced by 7 land all over the table, so the last
			// insert probes around the wrap.
			key := func(i int64) uint32 { return uint32(7*i + 1) }
			for i := int64(0); i < slots-1; i++ {
				if err := kv.Put(key(i), int64(i)); err != nil {
					t.Fatalf("%s: Put of key %d of %d: %v", name, i+1, slots-1, err)
				}
			}
			if err := kv.Put(key(slots-1), 0); !errors.Is(err, cclerr.ErrOutOfMemory) {
				t.Fatalf("%s: Put of key %d into a full table: %v, want ErrOutOfMemory", name, slots, err)
			}
			if kv.Len() != slots-1 {
				t.Fatalf("%s: Len %d after the refused Put, want %d", name, kv.Len(), slots-1)
			}
			for i := int64(0); i < slots-1; i += 2 {
				if err := kv.Put(key(i), -i); err != nil {
					t.Fatalf("%s: overwrite of resident key %d: %v", name, key(i), err)
				}
			}
			for i := int64(0); i < slots-1; i++ {
				want := int64(i)
				if i%2 == 0 {
					want = -i
				}
				if got, ok := kv.Get(key(i)); !ok || got != want {
					t.Fatalf("%s: Get(%d) = (%d, %v), want (%d, true)", name, key(i), got, ok, want)
				}
			}
			if _, ok := kv.Get(key(slots - 1)); ok {
				t.Fatalf("%s: the refused key %d reads back", name, key(slots-1))
			}
			if err := kv.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}
