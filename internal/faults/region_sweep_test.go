package faults

import (
	"errors"
	"fmt"
	"testing"

	"ccl/internal/apps/radiance"
	"ccl/internal/cache"
	"ccl/internal/cclerr"
	"ccl/internal/heap"
	"ccl/internal/machine"
	"ccl/internal/memsys"
	"ccl/internal/profile"
	"ccl/internal/sim"
	"ccl/internal/split"
	"ccl/internal/trees"
)

// The placement sweeps beyond ccmorph: a B-tree bulk load, a hot/cold
// split and RADIANCE's relocation each place through a layout.Region,
// which consults the arena's guard once per placement, so a
// place-cluster schedule armed on the run context reaches all three.
// Each sweep first counts the run's placements with an unscheduled
// injector, then vetoes placements inside that count, and checks the
// site's own contract on a veto.

// sweepOrdinals returns about eight veto ordinals spread over
// [1, count], always including the first and the last.
func sweepOrdinals(count int64) []int64 {
	var ns []int64
	for n := int64(1); n < count; n += max(count/8, 1) {
		ns = append(ns, n)
	}
	return append(ns, count)
}

// TestBTreeBulkLoadVetoSweep: a vetoed node placement fails BulkLoad
// with ErrPlacementFailed wrapping the injected fault, leaves the tree
// empty, and a second BulkLoad into the same tree succeeds and
// searches.
func TestBTreeBulkLoadVetoSweep(t *testing.T) {
	const keys, fill = 500, 0.7
	for _, frac := range []float64{0.5, 0} {
		load := func(s *sim.Sim) (*trees.BTree, *machine.Recorder, error) {
			m, rec := sweepMachine(s)
			bt, err := trees.NewBTree(m, frac)
			if err != nil {
				t.Fatal(err)
			}
			return bt, rec, bt.BulkLoad(keys, fill)
		}
		counter := NewInjector()
		if _, _, err := load(armed(counter)); err != nil {
			t.Fatal(err)
		}
		for _, n := range sweepOrdinals(counter.Count(PlaceCluster)) {
			t.Run(fmt.Sprintf("frac%v/veto%d", frac, n), func(t *testing.T) {
				in := NewInjector().FailNth(PlaceCluster, n)
				bt, rec, err := load(armed(in))
				if !errors.Is(err, cclerr.ErrPlacementFailed) {
					t.Fatalf("vetoed BulkLoad err = %v, want ErrPlacementFailed", err)
				}
				checkTyped(t, "BulkLoad", err)
				if bt.N() != 0 || bt.Height() != 0 {
					t.Fatalf("vetoed BulkLoad left N=%d height=%d, want an empty tree", bt.N(), bt.Height())
				}
				if err := bt.BulkLoad(keys, fill); err != nil {
					t.Fatalf("reload after the veto: %v", err)
				}
				for k := uint32(1); k <= keys; k++ {
					if !bt.Search(k) {
						t.Fatalf("key %d missing after the reload", k)
					}
				}
				if err := bt.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				replayDiff(t, rec)
			})
		}
	}
}

// TestSplitVetoSweep: a vetoed chunk placement aborts Split
// (Stats.Aborted=1) with a typed error, never reclaims the input, and
// leaves the input searchable.
func TestSplitVetoSweep(t *testing.T) {
	part, err := split.Plan(trees.BSTFieldMap(), profile.StructProfile{}, "key", "left", "right")
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0.5, 0} {
		run := func(s *sim.Sim, freeOld func(memsys.Addr)) (*trees.BST, split.Stats, error) {
			m, _ := sweepMachine(s)
			tr := trees.MustBuild(m, heap.New(m.Arena), 300, trees.RandomOrder, 1)
			_, st, err := tr.Split(part, lastLevelRegion(t, m, frac), freeOld)
			return tr, st, err
		}
		counter := NewInjector()
		if _, _, err := run(armed(counter), nil); err != nil {
			t.Fatal(err)
		}
		for _, n := range sweepOrdinals(counter.Count(PlaceCluster)) {
			in := NewInjector().FailNth(PlaceCluster, n)
			tr, st, err := run(armed(in), func(a memsys.Addr) {
				t.Fatalf("frac %v veto %d: freeOld(%v) on an aborted split", frac, n, a)
			})
			if !errors.Is(err, cclerr.ErrPlacementFailed) || st.Aborted != 1 {
				t.Fatalf("frac %v veto %d: (%+v, %v), want Aborted=1 and ErrPlacementFailed", frac, n, st, err)
			}
			checkTyped(t, "Split", err)
			if err := tr.CheckSearchable(); err != nil {
				t.Fatalf("frac %v veto %d: input damaged by the aborted split: %v", frac, n, err)
			}
		}
	}
}

// TestRadianceRelocationVetoKeepsChecksum: RADIANCE's relocation
// keeps the old placement of whatever the guard vetoes, as it does
// for an item list wider than a block, so the render is unchanged.
// The vetoes cover the last 40% of the run's placements — after
// ccmorph's clusters, whose veto would abort the morph itself.
func TestRadianceRelocationVetoKeepsChecksum(t *testing.T) {
	cfg := radiance.DefaultConfig()
	cfg.Frames = 1
	want := radiance.Run(machine.NewScaled(16), radiance.Base, cfg).Check
	for _, mode := range []radiance.Mode{radiance.ClusterColor, radiance.Cluster} {
		counter := NewInjector()
		radiance.Run(armed(counter).NewMachine(cache.ScaledHierarchy(16)), mode, cfg)
		total := counter.Count(PlaceCluster)
		first := total - total*2/5
		in := NewInjector()
		for n := first; n <= total; n++ {
			in.FailNth(PlaceCluster, n)
		}
		if got := radiance.Run(armed(in).NewMachine(cache.ScaledHierarchy(16)), mode, cfg).Check; got != want {
			t.Fatalf("%v: checksum %d with vetoed relocations, want the base layout's %d", mode, got, want)
		}
		if fired := in.Fired(PlaceCluster); fired == 0 || fired != total-first+1 {
			t.Fatalf("%v: %d of %d placements vetoed, want the last %d", mode, fired, total, total-first+1)
		}
	}
}
