package ccmorph

import (
	"errors"
	"math/rand"
	"testing"

	"ccl/internal/cclerr"
	"ccl/internal/heap"
	"ccl/internal/layout"
	"ccl/internal/machine"
	"ccl/internal/memsys"
)

// growRandomTree grows a randomly shaped binary tree by repeated leaf
// attachment (same shape distribution as the topology property test).
func growRandomTree(m *machine.Machine, alloc *heap.Malloc, rng *rand.Rand, n int) memsys.Addr {
	addrs := make([]memsys.Addr, 0, n)
	root := heap.MustAlloc(alloc, 20)
	m.Store32(root.Add(offKey), 0)
	m.StoreAddr(root.Add(offLeft), memsys.NilAddr)
	m.StoreAddr(root.Add(offRight), memsys.NilAddr)
	addrs = append(addrs, root)
	for i := 1; i < n; i++ {
		parent := addrs[rng.Intn(len(addrs))]
		off := int64(offLeft)
		if rng.Intn(2) == 1 {
			off = offRight
		}
		if !m.LoadAddr(parent.Add(off)).IsNil() {
			continue
		}
		node := heap.MustAlloc(alloc, 20)
		m.Store32(node.Add(offKey), uint32(i))
		m.StoreAddr(node.Add(offLeft), memsys.NilAddr)
		m.StoreAddr(node.Add(offRight), memsys.NilAddr)
		m.StoreAddr(parent.Add(off), node)
		addrs = append(addrs, node)
	}
	return root
}

// TestAbortedReorganizeLeavesInputIntactProperty is the degradation
// property behind DESIGN.md §7: when any cluster placement fails —
// at a random occurrence, on a randomly shaped tree — Reorganize
// must return the original root, never call freeOld, report
// Stats.Aborted, and leave the input structure walk-for-walk
// identical to its pre-morph state.
func TestAbortedReorganizeLeavesInputIntactProperty(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(900 + trial)))
		m := newMachine()
		alloc := heap.New(m.Arena)
		root := growRandomTree(m, alloc, rng, 40+rng.Intn(300))
		before := collectLevelOrder(m, root)

		cfg := testConfig()
		if trial%2 == 0 {
			cfg.ColorFrac = 0 // exercise both region shapes
		}
		region, err := layout.NewRegion(m.Arena, cfg.Geometry, cfg.ColorFrac)
		if err != nil {
			t.Fatal(err)
		}
		failAt := 1 + rng.Int63n(int64(len(before))/3+1)
		var seen int64
		m.Arena.SetGuard(func(ev memsys.GuardEvent, size int64) error {
			if ev != memsys.GuardPlace {
				return nil
			}
			seen++
			if seen == failAt {
				return cclerr.Errorf(cclerr.ErrFaultInjected, "degrade property: placement %d", seen)
			}
			return nil
		})

		newRoot, st, merr := ReorganizeWith(m, root, binLayout(20, false), region,
			func(a memsys.Addr) { t.Fatalf("trial %d: freeOld called on an aborted reorganize (%v)", trial, a) })
		if merr == nil {
			// The schedule outlived the cluster count: the morph
			// committed, which is the other legal outcome. The copy
			// must still be exact.
			after := collectLevelOrder(m, newRoot)
			if len(after) != len(before) {
				t.Fatalf("trial %d: committed morph changed node count: %d -> %d", trial, len(before), len(after))
			}
			continue
		}
		if !errors.Is(merr, cclerr.ErrPlacementFailed) || !errors.Is(merr, cclerr.ErrFaultInjected) {
			t.Fatalf("trial %d: err = %v, want ErrPlacementFailed wrapping ErrFaultInjected", trial, merr)
		}
		if newRoot != root {
			t.Fatalf("trial %d: aborted morph returned root %v, want original %v", trial, newRoot, root)
		}
		if st.Aborted != 1 {
			t.Fatalf("trial %d: Aborted = %d, want 1", trial, st.Aborted)
		}
		after := collectLevelOrder(m, root)
		if len(after) != len(before) {
			t.Fatalf("trial %d: aborted morph changed node count: %d -> %d", trial, len(before), len(after))
		}
		for i := range before {
			if before[i] != after[i] {
				t.Fatalf("trial %d: aborted morph changed key %d: %d -> %d", trial, i, before[i], after[i])
			}
		}
	}
}

// TestAbortedReorganizeGivesBackHotBudget: a morph aborted by a
// vetoed placement rewinds the region it shares, so the next morph
// into that region (health's per-round lists share one) colors
// exactly as a morph into a fresh region does. The veto falls on the
// last cluster, after the morph has spent the whole hot budget.
func TestAbortedReorganizeGivesBackHotBudget(t *testing.T) {
	cfg := testConfig()
	lay := binLayout(20, false)
	build := func() (*machine.Machine, memsys.Addr, *layout.Region) {
		m := newMachine()
		root, _ := buildComplete(m, heap.New(m.Arena), 10, 20, 5)
		region, err := layout.NewRegion(m.Arena, cfg.Geometry, cfg.ColorFrac)
		if err != nil {
			t.Fatal(err)
		}
		return m, root, region
	}

	m, root, fresh := build()
	_, clean, err := ReorganizeWith(m, root, lay, fresh, nil)
	if err != nil {
		t.Fatal(err)
	}
	if clean.HotClusters == 0 || clean.HotClusters == clean.Clusters {
		t.Fatalf("%d of %d clusters hot: the case needs a hot budget that runs out", clean.HotClusters, clean.Clusters)
	}

	m, root, shared := build()
	var seen int64
	m.Arena.SetGuard(func(ev memsys.GuardEvent, _ int64) error {
		if ev == memsys.GuardPlace {
			if seen++; seen == clean.Clusters {
				return errors.New("veto")
			}
		}
		return nil
	})
	if _, _, err := ReorganizeWith(m, root, lay, shared, nil); !errors.Is(err, cclerr.ErrPlacementFailed) {
		t.Fatalf("vetoed morph err = %v, want ErrPlacementFailed", err)
	}
	m.Arena.SetGuard(nil)
	_, again, err := ReorganizeWith(m, root, lay, shared, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.HotClusters != clean.HotClusters {
		t.Fatalf("morph after an aborted one placed %d hot clusters, a fresh region %d", again.HotClusters, clean.HotClusters)
	}
	if got, want := shared.HotLeft(), fresh.HotLeft(); got != want {
		t.Fatalf("shared region has %d bytes of hot budget left, a fresh one %d", got, want)
	}
}
