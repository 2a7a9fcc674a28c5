package faults

import (
	"errors"
	"reflect"
	"testing"

	"ccl/internal/cache"
	"ccl/internal/cclerr"
	"ccl/internal/ccmorph"
	"ccl/internal/heap"
	"ccl/internal/layout"
	"ccl/internal/sim"
	"ccl/internal/trees"
)

func TestFailNthFiresExactOccurrence(t *testing.T) {
	in := NewInjector().FailNth(ArenaGrow, 3)
	for i := 1; i <= 5; i++ {
		err := in.Check(ArenaGrow)
		if i == 3 {
			if !errors.Is(err, cclerr.ErrFaultInjected) {
				t.Fatalf("occurrence 3: err = %v, want ErrFaultInjected", err)
			}
		} else if err != nil {
			t.Fatalf("occurrence %d unexpectedly failed: %v", i, err)
		}
	}
	if in.Count(ArenaGrow) != 5 || in.Fired(ArenaGrow) != 1 {
		t.Fatalf("count=%d fired=%d, want 5/1", in.Count(ArenaGrow), in.Fired(ArenaGrow))
	}
}

func TestFailNthIgnoresNonPositive(t *testing.T) {
	in := NewInjector().FailNth(ArenaGrow, 0).FailNth(ArenaGrow, -2)
	for i := 1; i <= 4; i++ {
		if err := in.Check(ArenaGrow); err != nil {
			t.Fatalf("occurrence %d failed on a non-positive schedule: %v", i, err)
		}
	}
	if in.Fired(ArenaGrow) != 0 {
		t.Fatalf("fired %d faults from non-positive occurrences", in.Fired(ArenaGrow))
	}
}

func TestArmSimGrowGuard(t *testing.T) {
	s := sim.New()
	in := NewInjector().FailNth(ArenaGrow, 2)
	in.ArmSim(s)
	a := s.NewArena(0) // every arena of the run context sees the schedule
	if _, err := a.Grow(8); err != nil {
		t.Fatalf("first grow: %v", err)
	}
	brk := a.Brk()
	_, err := a.Grow(8)
	if !errors.Is(err, cclerr.ErrOutOfMemory) || !errors.Is(err, cclerr.ErrFaultInjected) {
		t.Fatalf("second grow err = %v, want ErrOutOfMemory and ErrFaultInjected", err)
	}
	if a.Brk() != brk {
		t.Fatal("failed grow moved the break")
	}
	if _, err := a.Grow(8); err != nil {
		t.Fatalf("third grow should recover: %v", err)
	}
	// Placements count against their own point, never a grow's.
	if err := a.CheckPlace(8); err != nil || in.Count(PlaceCluster) != 1 || in.Count(ArenaGrow) != 3 {
		t.Fatalf("CheckPlace = %v, counts place=%d grow=%d, want nil, 1, 3",
			err, in.Count(PlaceCluster), in.Count(ArenaGrow))
	}
	// An unrelated context in the same process is untouched: arming is
	// instance-scoped, not process-wide.
	if _, err := sim.New().NewArena(0).Grow(8); err != nil {
		t.Fatalf("unrelated context failing: %v", err)
	}
	in.FailNth(ArenaGrow, 4)
	s.SetGuard(nil)
	if _, err := a.Grow(8); err != nil {
		t.Fatalf("disarmed guard still failing: %v", err)
	}
}

func TestArmSimVetoesPlacement(t *testing.T) {
	s := sim.New()
	in := NewInjector().FailNth(PlaceCluster, 1)
	in.ArmSim(s)
	m := s.NewMachine(cache.ScaledHierarchy(64))
	tr := trees.MustBuild(m, heap.New(m.Arena), 200, trees.RandomOrder, 1)

	region, err := layout.NewRegion(m.Arena, layout.Geometry{Sets: 64, Assoc: 1, BlockSize: 64}, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, merr := tr.MorphWith(region, ccmorph.SubtreeCluster, nil)
	if !errors.Is(merr, cclerr.ErrPlacementFailed) || !errors.Is(merr, cclerr.ErrFaultInjected) {
		t.Fatalf("vetoed placement err = %v, want ErrPlacementFailed and ErrFaultInjected", merr)
	}
	if in.Fired(PlaceCluster) != 1 || in.Fired(ArenaGrow) != 0 {
		t.Fatalf("fired place=%d grow=%d, want 1/0", in.Fired(PlaceCluster), in.Fired(ArenaGrow))
	}
	// Copy-then-commit: the aborted reorganization must leave the
	// original tree fully searchable.
	if err := tr.CheckSearchable(); err != nil {
		t.Fatalf("tree damaged by aborted morph: %v", err)
	}
}

func TestServePointsAreDistinctAndCheckable(t *testing.T) {
	// The serve-layer points guard a different stack (admission,
	// streams) than the arena's guard, but they must be schedulable
	// and countable like any other point.
	seen := map[Point]bool{ArenaGrow: true, PlaceCluster: true}
	for _, p := range ServePoints() {
		if seen[p] {
			t.Fatalf("serve point %s collides with a structure-level point", p)
		}
		in := NewInjector().FailNth(p, 2)
		if err := in.Check(p); err != nil {
			t.Fatalf("%s occurrence 1 unexpectedly failed: %v", p, err)
		}
		if err := in.Check(p); !errors.Is(err, cclerr.ErrFaultInjected) {
			t.Fatalf("%s occurrence 2: err = %v, want ErrFaultInjected", p, err)
		}
	}
}

func TestParseSchedule(t *testing.T) {
	allowed := []Point{ArenaGrow, ServeStream}
	cases := []struct {
		name, spec string
		want       Schedule // checked only when ok
		ok         bool
	}{
		{"empty", "", nil, true},
		{"default occurrence", "arena-grow", Schedule{{ArenaGrow, 1}}, true},
		{"list in written order", "serve-stream:2,arena-grow:3,arena-grow",
			Schedule{{ServeStream, 2}, {ArenaGrow, 3}, {ArenaGrow, 1}}, true},
		{"whitespace around entries", " arena-grow:2 ,\tserve-stream ", Schedule{{ArenaGrow, 2}, {ServeStream, 1}}, true},
		{"largest occurrence", "arena-grow:1048576", Schedule{{ArenaGrow, 1 << 20}}, true},
		{"zero", "arena-grow:0", nil, false},
		{"negative", "arena-grow:-3", nil, false},
		{"non-numeric", "arena-grow:three", nil, false},
		{"empty occurrence", "arena-grow:", nil, false},
		{"above 1<<20", "arena-grow:1048577", nil, false},
		{"unknown point", "arena-shrink:1", nil, false},
		{"disallowed point", "place-cluster:1", nil, false},
		{"empty entry", "arena-grow,", nil, false},
		{"whitespace inside an entry", "arena-grow: 2", nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseSchedule(tc.spec, allowed...)
			if !tc.ok {
				if !errors.Is(err, cclerr.ErrInvalidArg) {
					t.Fatalf("ParseSchedule(%q) = %v, %v; want ErrInvalidArg", tc.spec, got, err)
				}
				return
			}
			if err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("ParseSchedule(%q) = %v, %v; want %v", tc.spec, got, err, tc.want)
			}
		})
	}
}

func TestScheduleInjectorFreshAndIdentical(t *testing.T) {
	sched := Schedule{{ArenaGrow, 2}, {ArenaGrow, 3}}
	a, b := sched.Injector(), sched.Injector()
	if a == b {
		t.Fatal("Injector returned the same instance twice")
	}
	for i := int64(1); i <= 4; i++ {
		ea, eb := a.Check(ArenaGrow), b.Check(ArenaGrow)
		if (ea != nil) != (i == 2 || i == 3) || (eb != nil) != (ea != nil) {
			t.Fatalf("occurrence %d: %v / %v, want failures at 2 and 3 only", i, ea, eb)
		}
	}
}
