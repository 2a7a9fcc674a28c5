package sim

import (
	"errors"
	"sync"
	"testing"

	"ccl/internal/cache"
	"ccl/internal/cclerr"
	"ccl/internal/memsys"
)

// TestGrowGuardScopedToContext is the point of the package: a guard
// armed on one context fires on its arenas and nowhere else.
func TestGrowGuardScopedToContext(t *testing.T) {
	guarded, free := New(), New()
	boom := errors.New("guarded")
	guarded.SetGuard(func(memsys.GuardEvent, int64) error { return boom })

	if _, err := guarded.NewArena(0).Grow(4096); !errors.Is(err, boom) {
		t.Fatalf("guarded context's arena grew: %v", err)
	}
	if _, err := free.NewArena(0).Grow(4096); err != nil {
		t.Fatalf("unrelated context caught the guard: %v", err)
	}
}

// TestGrowGuardArmsExistingArenas verifies arming is effective for
// arenas created before the SetGuard call: the forwarding guard
// reads the current function at grow time.
func TestGrowGuardArmsExistingArenas(t *testing.T) {
	s := New()
	a := s.NewArena(0)
	boom := errors.New("late guard")
	s.SetGuard(func(memsys.GuardEvent, int64) error { return boom })
	if _, err := a.Grow(4096); !errors.Is(err, boom) {
		t.Fatalf("guard armed after arena creation did not fire: %v", err)
	}
	if err := a.CheckPlace(64); !errors.Is(err, boom) || !errors.Is(err, cclerr.ErrPlacementFailed) {
		t.Fatalf("guard did not veto a placement as ErrPlacementFailed: %v", err)
	}
	s.SetGuard(nil)
	if _, err := a.Grow(4096); err != nil {
		t.Fatalf("disarmed guard still firing: %v", err)
	}
}

// TestRegistryPerRun verifies each context owns a private telemetry
// namespace.
func TestRegistryPerRun(t *testing.T) {
	a, b := New(), New()
	a.Registry().Set("x", 1)
	if got := b.Registry().Get("x"); got != 0 {
		t.Fatalf("registry leaked across contexts: %d", got)
	}
	if got := a.Registry().Get("x"); got != 1 {
		t.Fatalf("registry lost its own value: %d", got)
	}
}

// TestConcurrentSims runs many contexts at once, each building a
// machine and touching memory with its own guard armed — the shape
// the bench worker pool relies on. Run under -race this is the
// isolation proof.
func TestConcurrentSims(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := New()
			calls := 0
			s.SetGuard(func(memsys.GuardEvent, int64) error { calls++; return nil })
			m := s.NewMachine(cache.ScaledHierarchy(64))
			if _, err := m.Arena.Grow(int64(4096 * (i + 1))); err != nil {
				t.Errorf("sim %d: %v", i, err)
			}
			if calls == 0 {
				t.Errorf("sim %d: guard never consulted", i)
			}
			s.Registry().Set("sim", int64(i))
		}(i)
	}
	wg.Wait()
}

func TestBudgetBoundsGrowth(t *testing.T) {
	s := New()
	b := NewBudget(4096)
	s.SetBudget(b)
	a := s.NewArena(1024)
	if _, err := a.Grow(4096); err != nil {
		t.Fatalf("growth within budget failed: %v", err)
	}
	_, err := a.Grow(1)
	if !errors.Is(err, cclerr.ErrBudgetExceeded) {
		t.Fatalf("over-budget growth: err = %v, want ErrBudgetExceeded", err)
	}
	if !errors.Is(err, cclerr.ErrOutOfMemory) {
		t.Fatalf("budget failure should also wrap ErrOutOfMemory for degradation paths, got %v", err)
	}
	if got := b.Used(); got != 4096 {
		t.Fatalf("Used() = %d after failed grow, want 4096 (failed Take must consume nothing)", got)
	}
	s.SetBudget(nil)
	if _, err := a.Grow(1024); err != nil {
		t.Fatalf("growth after detaching budget failed: %v", err)
	}
}

func TestBudgetSharedAcrossSims(t *testing.T) {
	// One request = one budget over every Sim its jobs run in.
	b := NewBudget(2048)
	s1, s2 := New(), New()
	s1.SetBudget(b)
	s2.SetBudget(b)
	a1, a2 := s1.NewArena(1024), s2.NewArena(1024)
	if _, err := a1.Grow(1024); err != nil {
		t.Fatalf("first arena growth failed: %v", err)
	}
	if _, err := a2.Grow(1024); err != nil {
		t.Fatalf("second arena growth failed: %v", err)
	}
	if _, err := a2.Grow(1024); !errors.Is(err, cclerr.ErrBudgetExceeded) {
		t.Fatalf("shared budget not enforced across Sims: %v", err)
	}
}

func TestBudgetGuardOrder(t *testing.T) {
	// The grow guard fires before the budget is charged, so an
	// injected fault does not also consume budget bytes.
	s := New()
	b := NewBudget(1 << 20)
	s.SetBudget(b)
	s.SetGuard(func(memsys.GuardEvent, int64) error { return errors.New("vetoed") })
	a := s.NewArena(1024)
	if _, err := a.Grow(1024); err == nil {
		t.Fatal("vetoed growth succeeded")
	}
	if got := b.Used(); got != 0 {
		t.Fatalf("budget charged %d bytes for a vetoed growth", got)
	}
}

// TestBudgetChargesMappedBytes pins that the budget bounds what the
// arena maps, not what callers request: Grow rounds every request up
// to whole pages, so a 1-byte grow costs a page of budget.
func TestBudgetChargesMappedBytes(t *testing.T) {
	s := New()
	b := NewBudget(100)
	s.SetBudget(b)
	a := s.NewArena(8192)
	if _, err := a.Grow(1); !errors.Is(err, cclerr.ErrBudgetExceeded) {
		t.Fatalf("1-byte grow mapping an 8 KiB page under a 100-byte budget: err = %v, want ErrBudgetExceeded", err)
	}
	if a.Size() != 0 || b.Used() != 0 {
		t.Fatalf("failed grow mapped %d bytes and charged %d", a.Size(), b.Used())
	}

	b = NewBudget(3 * 8192)
	s.SetBudget(b)
	if _, err := a.Grow(1); err != nil {
		t.Fatalf("one page within a three-page budget: %v", err)
	}
	if _, err := a.Grow(2*8192 + 1); !errors.Is(err, cclerr.ErrBudgetExceeded) {
		t.Fatalf("three more pages past a three-page budget: err = %v, want ErrBudgetExceeded", err)
	}
	// A failed Take consumes nothing: a request that fits what is left
	// still succeeds.
	if _, err := a.Grow(8192 + 1); err != nil {
		t.Fatalf("two pages that fit the remaining budget: %v", err)
	}
	if b.Used() != 3*8192 || a.Size() != 3*8192 {
		t.Fatalf("budget charged %d bytes for %d mapped, want %d each", b.Used(), a.Size(), 3*8192)
	}
	// Placements are not growth: they draw nothing from the budget.
	if err := a.CheckPlace(64); err != nil || b.Used() != a.Size() {
		t.Fatalf("CheckPlace = %v with %d charged for %d mapped", err, b.Used(), a.Size())
	}
}
