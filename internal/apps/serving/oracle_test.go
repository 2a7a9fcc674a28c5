package serving

import (
	"testing"

	"ccl/internal/cache"
	"ccl/internal/machine"
	"ccl/internal/oracle"
)

// The differential satellite: record the serving structures' demand
// stream through machine.Record and replay it through the event-level
// oracle. Agreement on every access event and every cumulative
// counter proves the production hierarchy simulated this workload
// family correctly — on more than one geometry, since replacement and
// write policy bugs hide in configurations.

// assocGeometry is a second, set-associative geometry: 2-way L1 over
// a 4-way write-back L2, nothing like the direct-mapped scaled
// hierarchy the rest of the suite runs on.
func assocGeometry() cache.Config {
	return cache.Config{
		Levels: []cache.LevelConfig{
			{Name: "L1", Size: 1 << 10, Assoc: 2, BlockSize: 32, Latency: 1},
			{Name: "L2", Size: 16 << 10, Assoc: 4, BlockSize: 64, Latency: 6, WriteBack: true},
		},
		MemLatency: 64,
	}
}

// recordServingMix builds all three structures on m, redirects them
// through one shared recorder, and drives a small mixed serving phase.
func recordServingMix(t *testing.T, m *machine.Machine) *machine.Recorder {
	t.Helper()
	kv, err := NewKV(m, KVConfig{Layout: KVSplit, Placement: KVCCMalloc, Slots: 256})
	if err != nil {
		t.Fatal(err)
	}
	lru, err := NewLRU(m, LRUConfig{Capacity: 32, Split: true, Placement: LRUCCMalloc})
	if err != nil {
		t.Fatal(err)
	}
	pq, err := NewPQueue(m, PQConfig{Arity: 4, Cap: 256})
	if err != nil {
		t.Fatal(err)
	}
	rec := machine.Record(m)
	kv.UseMem(rec)
	lru.UseMem(rec)
	pq.UseMem(rec)

	if err := WarmKV(kv, 120); err != nil {
		t.Fatal(err)
	}
	if _, err := RunKV(kv, KVWorkload{Seed: 3, S: 0.99, Keys: 120, Ops: 600, PutEvery: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunLRU(lru, LRUWorkload{Seed: 5, S: 0.99, Keys: 128, Ops: 600}); err != nil {
		t.Fatal(err)
	}
	w := PQWorkload{Seed: 9, S: 0.99, Fill: 200, Ops: 600}
	if err := FillPQ(pq, w); err != nil {
		t.Fatal(err)
	}
	if _, err := RunPQ(pq, w); err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{kv.CheckInvariants(), lru.CheckInvariants(), pq.CheckInvariants()} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return rec
}

// TestServingOracleDifferential replays the recorded mixed-serving
// stream on two geometries.
func TestServingOracleDifferential(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *machine.Machine
	}{
		{"scaled-direct", machine.NewScaled(16)},
		{"set-assoc", machine.New(assocGeometry())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := recordServingMix(t, tc.m)
			if len(rec.Trace().Records) == 0 {
				t.Fatal("serving mix recorded no accesses")
			}
			if d := oracle.Diff(rec.Trace()); d != nil {
				t.Fatalf("serving stream diverged from the oracle: %v", d)
			}
		})
	}
}
