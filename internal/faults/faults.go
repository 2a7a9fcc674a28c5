// Package faults is a deterministic fault injector for the placement
// stack.
//
// Robustness claims are only testable if failures can be produced on
// demand, at exact points, reproducibly. This package schedules
// failures at named injection points by occurrence number — "fail the
// 3rd arena grow", "veto the 10th cache-conscious placement" — and
// arms them through the one fault seam the stack has: the guard every
// memsys.Arena adopted by a sim.Sim consults at growth and, through
// Arena.CheckPlace, before each cache-conscious placement.
// Injector.ArmSim is the only arming call. Every injected error wraps
// cclerr.ErrFaultInjected, and the arena additionally wraps the
// operational sentinel the fault simulates (ErrOutOfMemory for a
// vetoed grow, ErrPlacementFailed for a vetoed placement), so
// production degradation paths classify injected faults exactly like
// real ones. See DESIGN.md §7.
package faults

import (
	"slices"
	"strconv"
	"strings"
	"sync"

	"ccl/internal/cclerr"
	"ccl/internal/memsys"
	"ccl/internal/sim"
)

// Point names an injection point.
type Point string

const (
	// ArenaGrow fails memsys.Arena growth (simulated mmap/sbrk
	// failure). Armed, run-wide, via ArmSim.
	ArenaGrow Point = "arena-grow"
	// PlaceCluster vetoes a cache-conscious placement: a ccmorph
	// cluster (the oversized-cluster failure mode), a serving KV
	// group or a hinted LRU entry. Armed, run-wide, via ArmSim.
	PlaceCluster Point = "place-cluster"

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
// the run. This package holds no package-level mutable state: an
// armed injector lives in the guard of the Sim it was armed on.
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

// ArmSim installs the injector as the run context's guard, reaching
// every arena created through (or adopted by) that Sim: arena growth
// checks the ArenaGrow schedule and each cache-conscious placement the
// PlaceCluster schedule. cmd/ccbench -fault arms a fresh injector on
// each job's Sim this way, so the schedule is deterministic per job no
// matter how many jobs run concurrently.
func (in *Injector) ArmSim(s *sim.Sim) {
	s.SetGuard(func(ev memsys.GuardEvent, n int64) error {
		if ev == memsys.GuardPlace {
			return in.Check(PlaceCluster)
		}
		return in.Check(ArenaGrow)
	})
}
