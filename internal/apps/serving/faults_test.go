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

// The fault sweeps: scheduled arena-growth and cluster-placement
// failures across KV construction and the LRU evict/rebuild paths.
// Every provoked failure must be a typed, fault-classified error; a
// structure that survives must stay consistent (copy-then-commit),
// every previously acknowledged write must survive, and once the
// scheduled fault has fired the structure must serve again. Every
// machine is built through a sim.Sim armed by faults.Injector.ArmSim,
// the one arming call production uses.

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

// TestKVFaultSweep fails every arena growth and every group placement
// of KV construction in turn. NewKV places the whole fixed-capacity
// table up front, so construction is where a KV meets either fault,
// and a fault there must fail NewKV with the point's typed error —
// unless ccmalloc degrades it to conventional placement, in which
// case the store must be whole. Colored placement never degrades: a
// fault at any ordinal fails it. The first ordinal past construction
// must build a store; every store built must take its full load.
func TestKVFaultSweep(t *testing.T) {
	const slots = 512
	for _, tc := range []struct {
		p        faults.Point
		cfg      KVConfig
		want     error
		degrades bool
	}{
		{faults.ArenaGrow, KVConfig{Layout: KVSplit, Placement: KVCCMalloc, Slots: slots}, cclerr.ErrOutOfMemory, true},
		{faults.ArenaGrow, KVConfig{Layout: KVSplit, Placement: KVColored, Slots: slots}, cclerr.ErrOutOfMemory, false},
		{faults.PlaceCluster, KVConfig{Layout: KVSplit, Placement: KVColored, Slots: slots}, cclerr.ErrPlacementFailed, false},
	} {
		name := fmt.Sprintf("%s/%v", tc.p, tc.cfg.Placement)
		s := sim.New()
		counter := faults.NewInjector()
		counter.ArmSim(s)
		if _, err := NewKV(s.NewScaled(16), tc.cfg); err != nil {
			t.Fatal(err)
		}
		count := counter.Count(tc.p)
		failed := int64(0)
		for n := int64(1); n <= count+1; n++ {
			kv, err := NewKV(armedMachine(tc.p, n), tc.cfg)
			if err != nil {
				checkInjected(t, fmt.Sprintf("%s:%d NewKV", name, n), err)
				if !errors.Is(err, tc.want) || kv != nil || n > count {
					t.Fatalf("%s:%d: NewKV = (%v, %v), want a nil store and %v within %d ordinals",
						name, n, kv, err, tc.want, count)
				}
				failed++
				continue
			}
			for k := uint32(1); k < slots; k++ {
				if err := kv.Put(k, valueFor(k, 0)); err != nil {
					t.Fatalf("%s:%d: Put(%d): %v", name, n, k, err)
				}
			}
			for k := uint32(1); k < slots; k++ {
				if got, ok := kv.Get(k); !ok || got != valueFor(k, 0) {
					t.Fatalf("%s:%d: Get(%d) = (%d, %v)", name, n, k, got, ok)
				}
			}
			if err := kv.CheckInvariants(); err != nil {
				t.Fatalf("%s:%d: %v", name, n, err)
			}
		}
		if failed == 0 || (!tc.degrades && failed != count) {
			t.Fatalf("%s: %d of the %d faults inside construction failed NewKV", name, failed, count)
		}
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
