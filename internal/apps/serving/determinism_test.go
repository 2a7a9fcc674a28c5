package serving

import (
	"fmt"
	"reflect"
	"testing"

	"ccl/internal/cache"
	"ccl/internal/machine"
)

// The determinism regression: each workload, run twice from the same
// seed on fresh machines, must produce bit-identical workload stats,
// cache counters, and clocks. This is the property the golden serving
// table and the parallel-equivalence bench test stand on.

type servingRun struct {
	work  WorkloadStats
	cache cache.Stats
	now   int64
}

func runKVOnce(t *testing.T, cfg KVConfig, w KVWorkload) servingRun {
	t.Helper()
	m := machine.NewScaled(16)
	cfg.Slots = 1024
	kv, err := NewKV(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := WarmKV(kv, w.Keys); err != nil {
		t.Fatal(err)
	}
	m.ResetStats()
	st, err := RunKV(kv, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := kv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return servingRun{work: st, cache: m.Stats(), now: m.Now()}
}

func TestKVDeterminism(t *testing.T) {
	w := KVWorkload{Seed: 7, S: 0.99, Keys: 600, Ops: 4000, PutEvery: 8}
	for _, cfg := range kvVariants() {
		t.Run(fmt.Sprintf("%v-%v", cfg.Layout, cfg.Placement), func(t *testing.T) {
			a, b := runKVOnce(t, cfg, w), runKVOnce(t, cfg, w)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("two identically seeded runs diverged:\n  %+v\n  %+v", a, b)
			}
			if a.work.Hits == 0 || a.work.Misses == 0 {
				t.Fatalf("workload degenerate: %+v (want both hits and misses)", a.work)
			}
		})
	}
}

func runLRUOnce(t *testing.T, cfg LRUConfig, w LRUWorkload) servingRun {
	t.Helper()
	m := machine.NewScaled(16)
	cfg.Capacity = 256
	cfg.IndexSlots = 2048
	c, err := NewLRU(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.ResetStats()
	st, err := RunLRU(c, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return servingRun{work: st, cache: m.Stats(), now: m.Now()}
}

func TestLRUDeterminism(t *testing.T) {
	w := LRUWorkload{Seed: 11, S: 0.99, Keys: 1024, Ops: 4000}
	for _, cfg := range lruVariants() {
		t.Run(fmt.Sprintf("split=%v-%v", cfg.Split, cfg.Placement), func(t *testing.T) {
			a, b := runLRUOnce(t, cfg, w), runLRUOnce(t, cfg, w)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("two identically seeded runs diverged:\n  %+v\n  %+v", a, b)
			}
			if a.work.Hits == 0 || a.work.Misses == 0 {
				t.Fatalf("workload degenerate: %+v (want both hits and misses)", a.work)
			}
		})
	}
}

func runPQOnce(t *testing.T, arity int64, w PQWorkload) servingRun {
	t.Helper()
	m := machine.NewScaled(16)
	q, err := NewPQueue(m, PQConfig{Arity: arity, Cap: w.Fill + 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := FillPQ(q, w); err != nil {
		t.Fatal(err)
	}
	m.ResetStats()
	st, err := RunPQ(q, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return servingRun{work: st, cache: m.Stats(), now: m.Now()}
}

func TestPQDeterminism(t *testing.T) {
	w := PQWorkload{Seed: 13, S: 0.99, Fill: 2048, Ops: 4000}
	for _, arity := range []int64{2, 4, 8} {
		t.Run(fmt.Sprintf("arity=%d", arity), func(t *testing.T) {
			a, b := runPQOnce(t, arity, w), runPQOnce(t, arity, w)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("two identically seeded runs diverged:\n  %+v\n  %+v", a, b)
			}
			if a.work.Ops != w.Ops {
				t.Fatalf("hold model ran %d ops, want %d", a.work.Ops, w.Ops)
			}
		})
	}
}
