// Package faults is a deterministic, seeded fault injector for the
// placement stack.
//
// Robustness claims are only testable if failures can be produced on
// demand, at exact points, reproducibly. This package schedules
// failures at named injection points — "fail the 3rd arena grow",
// "exhaust the allocation budget after 64 KiB", "veto every cluster
// placement", "corrupt byte 17 of this trace" — and arms them through
// the small hook seams the wrapped packages expose
// (memsys.Arena.SetGrowGuard, ccmorph.Placer.SetPlaceGuard) or by
// wrapping heap.Allocator. Every injected error wraps
// cclerr.ErrFaultInjected; the hook seams additionally wrap the
// operational sentinel the fault simulates (ErrOutOfMemory,
// ErrPlacementFailed), so production degradation paths classify
// injected faults exactly like real ones. See DESIGN.md §7.
package faults

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"ccl/internal/cclerr"
	"ccl/internal/ccmorph"
	"ccl/internal/heap"
	"ccl/internal/memsys"
	"ccl/internal/sim"
)

// Point names an injection point.
type Point string

const (
	// ArenaGrow fails memsys.Arena growth (simulated mmap/sbrk
	// failure). Armed via ArmArena or, run-wide, via ArmSim.
	ArenaGrow Point = "arena-grow"
	// AllocBudget fails allocations once a byte budget is exhausted.
	// Armed via Budget.
	AllocBudget Point = "alloc-budget"
	// PlaceCluster fails ccmorph cluster placement (the oversized-
	// cluster failure mode). Armed via ArmPlacer.
	PlaceCluster Point = "place-cluster"
	// TraceRecord corrupts encoded trace bytes. Armed via Corrupt.
	TraceRecord Point = "trace-record"

	// ServeAdmit fails request admission in internal/serve: the
	// scheduled admission checks are rejected as if the server were
	// overloaded (the rejection wraps cclerr.ErrOverloaded). Checked
	// once per admission attempt.
	ServeAdmit Point = "serve-admit"
	// ServeStream fails NDJSON stream writes in internal/serve,
	// simulating a client that disconnected mid-stream. Checked once
	// per emitted event.
	ServeStream Point = "serve-stream"
)

// Points lists the structure-level injection points — the ones
// Injector.Seed schedules and the placement-stack sweep tests
// exercise. The serve-layer points live in ServePoints: they guard a
// different stack (admission, streams) and are swept by the server's
// own load test, and keeping them out of this list keeps historical
// Seed schedules stable.
func Points() []Point {
	return []Point{ArenaGrow, AllocBudget, PlaceCluster, TraceRecord}
}

// ServePoints lists the serve-layer injection points checked by
// internal/serve — admission and stream writes; the load-test driver
// arms both.
func ServePoints() []Point {
	return []Point{ServeAdmit, ServeStream}
}

// maxOccurrence bounds the occurrence number a parsed schedule entry
// may name.
const maxOccurrence = 1 << 20

// Entry is one entry of a parsed schedule: fail the N-th occurrence
// (1-based) of Point.
type Entry struct {
	Point Point
	N     int64
}

// Schedule is a parsed fault schedule, entries in written order.
type Schedule []Entry

// ParseSchedule parses a comma-separated "point[:n]" schedule such as
// "serve-stream:2,arena-grow:3", the syntax ccbench -fault and
// cclserve's spec field share. n defaults to 1 and must lie in
// [1, 1<<20], whitespace around an entry is ignored, and every point
// must be one of allowed. The empty string is the empty schedule.
// Every error wraps cclerr.ErrInvalidArg.
func ParseSchedule(spec string, allowed ...Point) (Schedule, error) {
	if spec == "" {
		return nil, nil
	}
	var s Schedule
	for _, part := range strings.Split(spec, ",") {
		point, nstr, hasN := strings.Cut(strings.TrimSpace(part), ":")
		n := int64(1)
		if hasN {
			v, err := strconv.ParseInt(nstr, 10, 64)
			if err != nil || v < 1 || v > maxOccurrence {
				return nil, cclerr.Errorf(cclerr.ErrInvalidArg,
					"faults: bad occurrence %q in %q (want 1..%d)", nstr, part, maxOccurrence)
			}
			n = v
		}
		p := Point(point)
		if !slices.Contains(allowed, p) {
			return nil, cclerr.Errorf(cclerr.ErrInvalidArg,
				"faults: point %q cannot be armed here (allowed: %v)", point, allowed)
		}
		s = append(s, Entry{Point: p, N: n})
	}
	return s, nil
}

// Injector returns a fresh injector armed with the schedule. Every
// call returns a new injector with identical scheduling, so a
// reference run replays the exact fault sequence the original saw.
func (s Schedule) Injector() *Injector {
	in := NewInjector()
	for _, e := range s {
		in.FailNth(e.Point, e.N)
	}
	return in
}

// Injector schedules failures by occurrence number per point. The
// zero schedule injects nothing; the same schedule always fails the
// same occurrences, so every failing run replays exactly.
//
// An Injector is safe for concurrent use, but occurrence numbering is
// only deterministic when the guarded structures are driven from one
// goroutine — which is why the bench worker pool arms a fresh
// injector per job (one sim.Sim each) rather than sharing one across
// the run. This package holds no package-level mutable state: every
// armed hook is a field on the structure it guards.
type Injector struct {
	mu     sync.Mutex
	nth    map[Point]map[int64]bool // occurrence numbers to fail, 1-based
	counts map[Point]int64          // occurrences observed so far
	fired  map[Point]int64          // failures actually injected
}

// NewInjector returns an injector with an empty schedule.
func NewInjector() *Injector {
	return &Injector{
		nth:    map[Point]map[int64]bool{},
		counts: map[Point]int64{},
		fired:  map[Point]int64{},
	}
}

// FailNth schedules the n-th occurrence (1-based) of point p to fail.
// Non-positive n is ignored.
func (in *Injector) FailNth(p Point, n int64) *Injector {
	if n <= 0 {
		return in
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.nth[p] == nil {
		in.nth[p] = map[int64]bool{}
	}
	in.nth[p][n] = true
	return in
}

// Seed schedules, for every point, a handful of failing occurrences
// drawn from a PRNG seeded with seed — the "shake the whole stack"
// schedule the sweep tests use. Identical seeds produce identical
// schedules.
func (in *Injector) Seed(seed int64, perPoint int) *Injector {
	rng := rand.New(rand.NewSource(seed))
	for _, p := range Points() {
		for i := 0; i < perPoint; i++ {
			in.FailNth(p, 1+rng.Int63n(64))
		}
	}
	return in
}

// Check records one occurrence of point p and returns a non-nil
// error wrapping cclerr.ErrFaultInjected when the schedule says this
// occurrence fails.
func (in *Injector) Check(p Point) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.counts[p]++
	n := in.counts[p]
	if in.nth[p][n] {
		in.fired[p]++
		return cclerr.Errorf(cclerr.ErrFaultInjected,
			"faults: %s occurrence %d", p, n)
	}
	return nil
}

// Count returns how many occurrences of p have been observed.
func (in *Injector) Count(p Point) int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts[p]
}

// Fired returns how many failures have been injected at p.
func (in *Injector) Fired(p Point) int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[p]
}

// Scheduled returns the occurrence numbers scheduled to fail at p, in
// ascending order.
func (in *Injector) Scheduled(p Point) []int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.scheduledLocked(p)
}

func (in *Injector) scheduledLocked(p Point) []int64 {
	var ns []int64
	for n := range in.nth[p] {
		ns = append(ns, n)
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	return ns
}

// ArmArena installs the injector's ArenaGrow schedule as arena's grow
// guard: the scheduled grow attempts fail with an error the arena
// wraps in cclerr.ErrOutOfMemory.
func (in *Injector) ArmArena(a *memsys.Arena) {
	a.SetGrowGuard(func(n int64) error { return in.Check(ArenaGrow) })
}

// ArmSim installs the ArenaGrow schedule as the run context's grow
// guard, reaching every arena created through (or adopted by) that
// Sim — the instance-scoped replacement for the old process-wide
// default guard. cmd/ccbench -fault arms a fresh injector on each
// job's Sim this way, so the schedule is deterministic per job no
// matter how many jobs run concurrently.
func (in *Injector) ArmSim(s *sim.Sim) {
	s.SetGrowGuard(func(n int64) error { return in.Check(ArenaGrow) })
}

// ArmPlacer installs the PlaceCluster schedule as placer's placement
// guard: scheduled cluster placements fail with an error the placer
// wraps in cclerr.ErrPlacementFailed.
func (in *Injector) ArmPlacer(p *ccmorph.Placer) {
	p.SetPlaceGuard(func(size int64) error { return in.Check(PlaceCluster) })
}

// Budget wraps next so that every allocation consumes bytes from a
// budget; once maxBytes have been requested, further allocations fail
// with cclerr.ErrOutOfMemory (and ErrFaultInjected). The AllocBudget
// schedule can additionally fail individual allocations early.
func (in *Injector) Budget(next heap.Allocator, maxBytes int64) *BudgetAllocator {
	return &BudgetAllocator{in: in, next: next, left: maxBytes}
}

// BudgetAllocator is a heap.Allocator with an allocation-byte budget;
// see Injector.Budget.
type BudgetAllocator struct {
	in   *Injector
	next heap.Allocator
	left int64
}

var _ heap.Allocator = (*BudgetAllocator)(nil)

func (b *BudgetAllocator) take(size int64) error {
	if err := b.in.Check(AllocBudget); err != nil {
		return fmt.Errorf("faults: allocation vetoed: %w: %w", cclerr.ErrOutOfMemory, err)
	}
	if size > b.left {
		return fmt.Errorf("faults: %d-byte allocation exceeds remaining budget %d: %w: %w",
			size, b.left, cclerr.ErrOutOfMemory, cclerr.ErrFaultInjected)
	}
	b.left -= size
	return nil
}

// Alloc implements heap.Allocator.
func (b *BudgetAllocator) Alloc(size int64) (memsys.Addr, error) {
	if err := b.take(size); err != nil {
		return memsys.NilAddr, err
	}
	return b.next.Alloc(size)
}

// AllocHint implements heap.Allocator.
func (b *BudgetAllocator) AllocHint(size int64, hint memsys.Addr) (memsys.Addr, error) {
	if err := b.take(size); err != nil {
		return memsys.NilAddr, err
	}
	return b.next.AllocHint(size, hint)
}

// Free implements heap.Allocator. Freed bytes are not returned to the
// budget: the budget models total allocation traffic, not live bytes.
func (b *BudgetAllocator) Free(addr memsys.Addr) error { return b.next.Free(addr) }

// HeapBytes implements heap.Allocator.
func (b *BudgetAllocator) HeapBytes() int64 { return b.next.HeapBytes() }

// Remaining returns the unconsumed budget in bytes.
func (b *BudgetAllocator) Remaining() int64 { return b.left }

// Corrupt returns a copy of data with one byte flipped per scheduled
// TraceRecord occurrence (occurrence n flips the byte at a position
// derived deterministically from n). Feeding the result to
// trace.Decode exercises the cclerr.ErrCorruptTrace path. Data shorter
// than 1 byte is returned unchanged.
func (in *Injector) Corrupt(data []byte) []byte {
	if len(data) == 0 {
		return data
	}
	out := append([]byte(nil), data...)
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, n := range in.scheduledLocked(TraceRecord) {
		in.counts[TraceRecord]++
		in.fired[TraceRecord]++
		pos := int((n * 2654435761) % int64(len(out)))
		out[pos] ^= 0xFF
	}
	return out
}
