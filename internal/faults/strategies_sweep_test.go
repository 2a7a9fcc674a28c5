package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ccl/internal/cclerr"
	"ccl/internal/ccmorph"
	"ccl/internal/heap"
	"ccl/internal/profile"
	"ccl/internal/sim"
	"ccl/internal/split"
	"ccl/internal/trees"
)

// The new placement strategies (vEB order, hot/cold splitting) join
// the same robustness bar the original Reorganize path holds: every
// run — clean or fault-injected — must either commit or abort typed
// with the original structure intact, and the access stream it issued
// must replay byte-identically through the differential oracle.

// searchPartition plans the canonical search split: key and links
// hot, value cold.
func searchPartition(t *testing.T) split.Partition {
	t.Helper()
	part, err := split.Plan(trees.BSTFieldMap(), profile.StructProfile{
		Label:  "bst-nodes",
		Struct: "bst-node",
		Fields: []profile.FieldProfile{
			{Field: "key", Offset: 0, Size: 4, LLMisses: 100, Hot: true},
			{Field: "left", Offset: 4, Size: 4, LLMisses: 60, Hot: true},
			{Field: "right", Offset: 8, Size: 4, LLMisses: 55, Hot: true},
			{Field: "value", Offset: 12, Size: 8, LLMisses: 2},
		},
	}, "left", "right")
	if err != nil {
		t.Fatal(err)
	}
	return part
}

// TestStrategyReplayDifferential is the clean-path oracle gate: build,
// reorganize under each strategy, search — then replay the whole
// access stream (build and morph traffic included) through the
// reference simulator.
func TestStrategyReplayDifferential(t *testing.T) {
	const n = 500
	for _, strat := range []ccmorph.Strategy{ccmorph.SubtreeCluster, ccmorph.VEB} {
		t.Run(strat.String(), func(t *testing.T) {
			m, rec := sweepMachine(sim.New())
			tr := trees.MustBuild(m, heap.New(m.Arena), n, trees.RandomOrder, 7)
			if _, err := tr.MorphWith(lastLevelRegion(t, m, 0.5), strat, nil); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < 2000; i++ {
				tr.Search(uint32(rng.Int63n(n)) + 1)
			}
			replayDiff(t, rec)
		})
	}

	t.Run("hot-cold-split", func(t *testing.T) {
		m, rec := sweepMachine(sim.New())
		tr := trees.MustBuild(m, heap.New(m.Arena), n, trees.RandomOrder, 7)
		st, _, err := tr.Split(searchPartition(t), lastLevelRegion(t, m, 0.5), nil)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 2000; i++ {
			st.Search(uint32(rng.Int63n(n)) + 1)
		}
		replayDiff(t, rec)
	})
}

// sweepVEBPlace is sweepPlaceCluster under the vEB strategy: vetoed
// placements must abort typed, leave the tree searchable, and the
// degraded run must still replay.
func sweepVEBPlace(t *testing.T, seed int64) {
	in := NewInjector().FailNth(PlaceCluster, 10*seed)
	m, rec := sweepMachine(armed(in))
	tr := trees.MustBuild(m, heap.New(m.Arena), 150, trees.RandomOrder, seed)

	st, merr := tr.MorphWith(lastLevelRegion(t, m, 0.5), ccmorph.VEB, nil)
	if merr != nil {
		if !errors.Is(merr, cclerr.ErrPlacementFailed) {
			t.Fatalf("vetoed vEB morph err = %v, want ErrPlacementFailed", merr)
		}
		checkTyped(t, "MorphWith", merr)
		if st.Aborted == 0 {
			t.Fatal("failed vEB morph did not set Stats.Aborted")
		}
	}
	if in.Fired(PlaceCluster) == 0 {
		t.Fatal("no placement veto fired during the vEB morph")
	}
	if cerr := tr.CheckSearchable(); cerr != nil {
		t.Fatalf("tree unsearchable after vEB morph (aborted=%d): %v", st.Aborted, cerr)
	}
	for k := uint32(1); k <= 150; k++ {
		if !tr.Search(k) {
			t.Fatalf("key %d lost (aborted=%d)", k, st.Aborted)
		}
	}
	replayDiff(t, rec)
}

// sweepSplitArenaGrow splits a tree while the arena fails growth on
// schedule: the split either commits (and the split form is
// searchable) or aborts typed with the original untouched; both
// outcomes replay through the oracle.
func sweepSplitArenaGrow(t *testing.T, seed int64) {
	s := sim.New()
	m, rec := sweepMachine(s)
	tr := trees.MustBuild(m, heap.New(m.Arena), 200, trees.RandomOrder, seed)
	part := searchPartition(t)

	in := NewInjector()
	for i := int64(0); i < 3; i++ {
		in.FailNth(ArenaGrow, seed+i)
	}
	in.ArmSim(s)

	st, stats, err := tr.Split(part, lastLevelRegion(t, m, 0.5), nil)
	if err != nil {
		checkTyped(t, "Split", err)
		if stats.Aborted == 0 {
			t.Fatal("failed split did not set Stats.Aborted")
		}
	} else if cerr := st.CheckSearchable(); cerr != nil {
		t.Fatalf("split tree unsearchable: %v", cerr)
	}
	if in.Fired(ArenaGrow) == 0 {
		// The schedule never reached an arena grow: the sweep is not
		// exercising the seam it claims to.
		t.Fatal("no arena-grow fault fired during the split")
	}
	// Copy-then-commit: the original survives every outcome.
	if cerr := tr.CheckSearchable(); cerr != nil {
		t.Fatalf("original unsearchable after split (err=%v): %v", err, cerr)
	}
	for k := uint32(1); k <= 200; k++ {
		if !tr.Search(k) {
			t.Fatalf("key %d lost from original (split err=%v)", k, err)
		}
	}
	replayDiff(t, rec)
}

// TestStrategyFaultSweep drives both new strategies through their
// fault seams across several deterministic schedules.
func TestStrategyFaultSweep(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("veb-place/seed%d", seed), func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("vEB fault sweep panicked: %v", r)
				}
			}()
			sweepVEBPlace(t, seed)
		})
		t.Run(fmt.Sprintf("split-grow/seed%d", seed), func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("split fault sweep panicked: %v", r)
				}
			}()
			sweepSplitArenaGrow(t, seed)
		})
	}
}
