package trace_test

import (
	"testing"

	"ccl/internal/apps/serving"
	"ccl/internal/cache"
	"ccl/internal/machine"
	"ccl/internal/trace"
)

// TestUploadPathAllocations pins the upload path's allocations on a
// recorded serving trace: Check allocates nothing, and the streaming
// replay allocates only what building its hierarchy does, so no
// per-record allocation can come back unnoticed.
func TestUploadPathAllocations(t *testing.T) {
	m := machine.NewScaled(16)
	kv, err := serving.NewKV(m, serving.KVConfig{Layout: serving.KVSplit, Placement: serving.KVColored, Slots: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if err := serving.WarmKV(kv, 2048); err != nil {
		t.Fatal(err)
	}
	rec := serving.NewTraceRecorder(m)
	kv.UseMem(rec)
	if _, err := serving.RunKV(kv, serving.KVWorkload{Seed: 1, S: 0.99, Keys: 2048, Ops: 2000, PutEvery: 8}); err != nil {
		t.Fatal(err)
	}
	data := rec.Trace().Encode()
	enc, err := trace.Check(data)
	if err != nil {
		t.Fatal(err)
	}
	if enc.Len() < 2000 {
		t.Fatalf("recorded only %d records", enc.Len())
	}
	if n := testing.AllocsPerRun(20, func() { trace.Check(data) }); n != 0 {
		t.Errorf("Check allocated %v times per run, want 0", n)
	}
	build := testing.AllocsPerRun(20, func() { cache.New(enc.Config()) })
	if n := testing.AllocsPerRun(20, func() { enc.Replay() }); n != build {
		t.Errorf("the streaming replay of %d records allocated %v times per run; building its hierarchy allocates %v",
			enc.Len(), n, build)
	}
}
