package serving

import (
	"errors"
	"fmt"
	"testing"

	"ccl/internal/cclerr"
	"ccl/internal/ccmalloc"
	"ccl/internal/faults"
	"ccl/internal/machine"
	"ccl/internal/sim"
)

// The fault sweep: scheduled arena-growth and cluster-placement
// failures across the KV resize and LRU evict/rebuild paths. Every
// provoked failure must be a typed, fault-classified error; the
// structure must stay consistent (copy-then-commit), every
// previously acknowledged write must survive, and once the scheduled
// fault has fired the structure must serve again. Every machine is
// built through a sim.Sim armed by faults.Injector.ArmSim, the one
// arming call production uses.

// checkInjected fails the test unless err is a classified fault
// injection.
func checkInjected(t *testing.T, op string, err error) {
	t.Helper()
	if !errors.Is(err, cclerr.ErrFaultInjected) {
		t.Fatalf("%s failed with a non-injected error: %v", op, err)
	}
	if cclerr.Class(err) == "" {
		t.Fatalf("%s returned an unclassified error: %v", op, err)
	}
}

// armedMachine returns a machine owned by a run context armed to fail
// the n-th occurrence of point p.
func armedMachine(p faults.Point, n int64) *machine.Machine {
	s := sim.New()
	faults.NewInjector().FailNth(p, n).ArmSim(s)
	return s.NewScaled(16)
}

// sweepKV drives puts 1..keys through a store with one scheduled
// fault at point p and verifies the degradation contract at the
// failure point.
func sweepKV(t *testing.T, p faults.Point, cfg KVConfig, n int64) (faulted bool) {
	t.Helper()
	kv, err := NewKV(armedMachine(p, n), cfg)
	if err != nil {
		checkInjected(t, "NewKV", err)
		return true
	}
	acked := map[uint32]int64{}
	const keys = 400
	recovered := false
	for k := uint32(1); k <= keys; k++ {
		v := valueFor(k, int64(k))
		if err := kv.Put(k, v); err != nil {
			checkInjected(t, fmt.Sprintf("Put(%d)", k), err)
			faulted = true
			if ierr := kv.CheckInvariants(); ierr != nil {
				t.Fatalf("store inconsistent after injected Put(%d) failure: %v", k, ierr)
			}
			for ak, av := range acked {
				if got, ok := kv.Get(ak); !ok || got != av {
					t.Fatalf("acked key %d lost after injected failure: (%d, %v)", ak, got, ok)
				}
			}
			continue
		}
		if faulted {
			recovered = true
		}
		acked[k] = v
	}
	if faulted && !recovered {
		t.Fatal("store never recovered after the scheduled fault")
	}
	if err := kv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return faulted
}

// TestKVFaultSweep sweeps the fault ordinal across the resize path
// for both failure points. Low ordinals hit construction, middle ones
// the doubling resizes, high ones fall after the run (no fault, which
// is fine — the sweep's job is covering the schedule space).
func TestKVFaultSweep(t *testing.T) {
	growCfg := KVConfig{Layout: KVSplit, Placement: KVCCMalloc, Slots: 8}
	placeCfg := KVConfig{Layout: KVSplit, Placement: KVColored, Slots: 8}
	anyGrow, anyPlace := false, false
	for n := int64(1); n <= 12; n++ {
		anyGrow = sweepKV(t, faults.ArenaGrow, growCfg, n) || anyGrow
		anyPlace = sweepKV(t, faults.PlaceCluster, placeCfg, n) || anyPlace
	}
	if !anyGrow {
		t.Error("no arena-grow schedule ever fired on the KV resize path")
	}
	if !anyPlace {
		t.Error("no place-cluster schedule ever fired on the KV placement path")
	}
	// A placement veto mid-resize must surface as a typed placement
	// failure, not a silent degradation: colored placement is the
	// structure's contract.
	kv, err := NewKV(armedMachine(faults.PlaceCluster, 1), placeCfg)
	if !errors.Is(err, cclerr.ErrPlacementFailed) {
		t.Fatalf("NewKV with a vetoed placement: (%v, %v), want ErrPlacementFailed", kv, err)
	}
}

// TestLRUFaultSweep sweeps arena-growth failures across the LRU's
// insert/evict/rebuild cycle, place-cluster vetoes across its hinted
// placements — which degrade to conventional placement rather than
// fail, mirroring ccmalloc's own contract — and a failed index
// rebuild.
func TestLRUFaultSweep(t *testing.T) {
	anyFault := false
	for n := int64(1); n <= 12; n++ {
		c, err := NewLRU(armedMachine(faults.ArenaGrow, n), LRUConfig{Capacity: 8, IndexSlots: 32, Placement: LRUCCMalloc, Split: true})
		if err != nil {
			checkInjected(t, "NewLRU", err)
			anyFault = true
			continue
		}
		acked := map[uint32]int64{}
		faulted, recovered := false, false
		for k := uint32(1); k <= 200; k++ {
			v := valueFor(k, int64(k))
			if err := c.Put(k, v); err != nil {
				checkInjected(t, fmt.Sprintf("Put(%d)", k), err)
				faulted = true
				anyFault = true
				if ierr := c.CheckInvariants(); ierr != nil {
					t.Fatalf("n=%d: cache inconsistent after injected Put(%d) failure: %v", n, k, ierr)
				}
				continue
			}
			if faulted {
				recovered = true
			}
			acked[k] = v
		}
		if faulted && !recovered {
			t.Fatalf("n=%d: cache never recovered after the scheduled fault", n)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		// The most recently acked keys up to capacity must be resident
		// with their acked values.
		st := c.Stats()
		for k := uint32(200); k > 200-uint32(st.Len); k-- {
			if v, ok := acked[k]; ok {
				if got, gok := c.Get(k); !gok || got != v {
					t.Fatalf("n=%d: resident key %d lost: (%d, %v)", n, k, got, gok)
				}
			}
		}
	}
	if !anyFault {
		t.Error("no arena-grow schedule ever fired on the LRU path")
	}

	// Place-cluster vetoes degrade hinted placements without failing
	// the op.
	s := sim.New()
	in := faults.NewInjector()
	for i := int64(1); i <= 64; i++ {
		in.FailNth(faults.PlaceCluster, i*2) // every other hinted placement
	}
	in.ArmSim(s)
	c, err := NewLRU(s.NewScaled(16), LRUConfig{Capacity: 16, Placement: LRUCCMalloc})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint32(1); k <= 100; k++ {
		if err := c.Put(k, int64(k)); err != nil {
			t.Fatalf("Put(%d) failed under degrading vetoes: %v", k, err)
		}
	}
	if st := c.entryAlloc.(*ccmalloc.Allocator).Stats(); st.Degraded == 0 {
		t.Fatal("no hinted placement was ever degraded")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	sweepLRURebuild(t)
}

// sweepLRURebuild fails the growth an index rebuild needs. With a
// 4 KiB index, the first rebuild's new generation does not fit the
// index's page, and after warm-up entry allocations recycle freed
// chunks, so the next arena growth is that rebuild's. Copy-then-commit
// must leave the old index serving, and the next put must rebuild.
func sweepLRURebuild(t *testing.T) {
	t.Helper()
	s := sim.New()
	in := faults.NewInjector()
	in.ArmSim(s)
	const slots = 512
	c, err := NewLRU(s.NewScaled(16), LRUConfig{Capacity: 8, IndexSlots: slots})
	if err != nil {
		t.Fatal(err)
	}
	k := uint32(1)
	for ; k <= 16; k++ {
		if err := c.Put(k, int64(k)); err != nil {
			t.Fatalf("warm-up Put(%d): %v", k, err)
		}
	}
	in.FailNth(faults.ArenaGrow, in.Count(faults.ArenaGrow)+1)
	for ; ; k++ {
		err := c.Put(k, int64(k))
		if err != nil {
			checkInjected(t, fmt.Sprintf("Put(%d)", k), err)
			break
		}
		if k > 100*slots {
			t.Fatal("no rebuild ever needed arena growth")
		}
	}
	st := c.Stats()
	if st.Rebuilds != 0 || st.IndexTombs*4 <= slots {
		t.Fatalf("Put(%d) failed without a due rebuild: %+v", k, st)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("cache inconsistent after the failed rebuild: %v", err)
	}
	for r := k - 1; r >= k-uint32(st.Len); r-- {
		if v, ok := c.Get(r); !ok || v != int64(r) {
			t.Fatalf("resident key %d lost by the failed rebuild: (%d, %v)", r, v, ok)
		}
	}
	if err := c.Put(k, int64(k)); err != nil {
		t.Fatalf("Put(%d) after the failed rebuild: %v", k, err)
	}
	if st := c.Stats(); st.Rebuilds != 1 {
		t.Fatalf("Rebuilds = %d after the retried put, want 1", st.Rebuilds)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
