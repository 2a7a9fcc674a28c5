// Package sim defines the per-run simulation context.
//
// A Sim owns what one run's machines share: the guard consulted by
// every arena built through it — the one fault seam, reached at arena
// growth and at cache-conscious placement — and an optional memory
// budget. Each experiment job gets a fresh Sim, builds its machines
// through it, and shares no mutable state with any other job; the
// bench worker pool (internal/bench) relies on that isolation for its
// determinism guarantee, because layout evaluation is embarrassingly
// parallel across independent configurations. See DESIGN.md §8.
//
// A Sim itself is safe for concurrent use, but the objects built
// through it (Arena, Machine, Topology) are not: each is confined to
// the one goroutine running its job, which is the concurrency model of
// the whole stack — share nothing, isolate runs, parallelize across
// Sims.
package sim

import (
	"sync"
	"sync/atomic"

	"ccl/internal/cache"
	"ccl/internal/cclerr"
	"ccl/internal/machine"
	"ccl/internal/memsys"
)

// Sim is one run's simulation context. The zero value is not ready;
// use New.
type Sim struct {
	mu     sync.Mutex
	guard  memsys.Guard
	budget *Budget
}

// Budget is a cumulative simulated-memory budget: every arena growth
// of every Sim the budget is attached to draws its page-rounded extent
// from it — the mapped bytes, not the requested ones — and once it
// is exhausted further growth fails with cclerr.ErrBudgetExceeded
// (which the arena additionally wraps in ErrOutOfMemory, so existing
// degradation paths engage unchanged). One Budget may be shared by
// several Sims — the serve layer attaches one per request, covering
// every job the request fans out into — and is safe for concurrent
// use.
type Budget struct {
	max  int64
	used atomic.Int64
}

// NewBudget returns a budget of max bytes. A non-positive max admits
// nothing.
func NewBudget(max int64) *Budget { return &Budget{max: max} }

// Take consumes n bytes, failing with cclerr.ErrBudgetExceeded when
// the budget cannot cover them; a failed Take consumes nothing.
func (b *Budget) Take(n int64) error {
	for {
		used := b.used.Load()
		if used+n > b.max {
			return cclerr.Errorf(cclerr.ErrBudgetExceeded,
				"sim: budget: %d-byte growth exceeds %d of %d bytes remaining",
				n, b.max-used, b.max)
		}
		if b.used.CompareAndSwap(used, used+n) {
			return nil
		}
	}
}

// Used returns the bytes consumed so far.
func (b *Budget) Used() int64 { return b.used.Load() }

// Max returns the budget's capacity in bytes.
func (b *Budget) Max() int64 { return b.max }

// New returns a fresh context with no guard armed and no budget.
func New() *Sim { return &Sim{} }

// SetGuard arms (or, with nil, disarms) the guard every arena created
// through this context consults before growing and before each
// cache-conscious placement (memsys.Arena.CheckPlace). Arming is
// effective immediately, including for arenas created before the
// call.
func (s *Sim) SetGuard(g memsys.Guard) {
	s.mu.Lock()
	s.guard = g
	s.mu.Unlock()
}

// SetBudget attaches (or, with nil, detaches) a simulated-memory
// budget every arena created through this context draws from on
// growth. The guard is consulted first — an injected fault fires
// before the budget is charged — and the budget may be shared across
// several Sims to bound one request's total footprint.
func (s *Sim) SetBudget(b *Budget) {
	s.mu.Lock()
	s.budget = b
	s.mu.Unlock()
}

// check is the forwarding guard installed on adopted arenas; it reads
// the current guard under the lock so arming and running can happen on
// different goroutines. Only growth draws from the budget.
func (s *Sim) check(ev memsys.GuardEvent, n int64) error {
	s.mu.Lock()
	g, b := s.guard, s.budget
	s.mu.Unlock()
	if g != nil {
		if err := g(ev, n); err != nil {
			return err
		}
	}
	if b != nil && ev == memsys.GuardGrow {
		return b.Take(n)
	}
	return nil
}

// AdoptArena ties an arena to this context's guard.
func (s *Sim) AdoptArena(a *memsys.Arena) { a.SetGuard(s.check) }

// NewArena builds an address space owned by this context.
func (s *Sim) NewArena(pageSize int64) *memsys.Arena {
	a := memsys.NewArena(pageSize)
	s.AdoptArena(a)
	return a
}

// NewMachine builds a machine with the given cache configuration,
// owned by this context.
func (s *Sim) NewMachine(cfg cache.Config) *machine.Machine {
	m := machine.New(cfg)
	s.AdoptArena(m.Arena)
	return m
}

// NewTopology builds an N-core topology (machine.NewTopology), owned
// by this context: its shared arena obeys the run's guard and memory
// budget like every single-core machine's.
func (s *Sim) NewTopology(cfg machine.TopologyConfig) *machine.Topology {
	t := machine.NewTopology(cfg)
	s.AdoptArena(t.Arena)
	return t
}
