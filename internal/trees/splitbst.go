// splitbst.go adapts the generic hot/cold splitter (internal/split)
// to the microbenchmark BST: the profiler ranks the element's fields
// (key and the child links run hot under search; the 8-byte satellite
// value is cold), Plan turns the ranking into a partition, and Split
// rebuilds the tree as three hot SoA arrays plus a cold overflow
// array — the paper's structure splitting (§3.2) applied to the
// Figure 5 tree.

package trees

import (
	"fmt"

	"ccl/internal/cclerr"
	"ccl/internal/layout"
	"ccl/internal/memsys"
	"ccl/internal/profile"
	"ccl/internal/split"
)

// PlanBSTSplit derives the BST's hot/cold partition from a profile
// report: the fields of the struct profiled under label, hot-ranked
// by the profiler, with the child links pinned hot (a search cannot
// reach a node without them, whatever the sample said). A report with
// no struct under that label fails with cclerr.ErrInvalidArg.
func PlanBSTSplit(rep profile.Report, label string) (split.Partition, error) {
	for _, sp := range rep.Structs {
		if sp.Label == label {
			return split.Plan(BSTFieldMap(), sp, "left", "right")
		}
	}
	return split.Partition{}, cclerr.Errorf(cclerr.ErrInvalidArg,
		"trees: PlanBSTSplit: no struct profiled under label %q", label)
}

// SplitBST is a BST rebuilt in split form: hot fields as SoA arrays,
// cold fields in an overflow array, children linked by element index.
type SplitBST struct {
	t        *split.Tree
	keySlot  int
	leftSlot int
	rghtSlot int
}

// Split rebuilds the tree in split (SoA hot / cold overflow) form
// under the given partition, placing its arrays in region. The
// original tree is untouched — Split is copy-then-commit — and stays
// owned by the caller; freeOld, if non-nil, reclaims its nodes after
// the commit.
func (t *BST) Split(part split.Partition, region *layout.Region,
	freeOld func(memsys.Addr)) (*SplitBST, split.Stats, error) {
	st, stats, err := split.Split(t.m, t.root, part, []string{"left", "right"}, region, freeOld)
	if err != nil {
		return nil, stats, err
	}
	s := &SplitBST{t: st}
	var ok bool
	if s.keySlot, ok = st.HotField("key"); !ok {
		// Unreachable by construction: Plan pins left/right and the
		// profiler ranks key hot under any search workload; a partition
		// without a hot key would make the split tree unsearchable, so
		// fail loudly rather than half-work.
		return nil, stats, cclerr.Errorf(cclerr.ErrInvalidArg,
			"trees: Split: partition left the key cold; search needs a hot key")
	}
	s.leftSlot = 0
	s.rghtSlot = 1
	return s, stats, nil
}

// Tree exposes the underlying split.Tree (telemetry registration,
// reassembly, cold-field access).
func (s *SplitBST) Tree() *split.Tree { return s.t }

// N returns the number of keys.
func (s *SplitBST) N() int64 { return s.t.N() }

// Search descends from the root to the key through the split layout:
// each step loads the 4-byte key from the key array and one 4-byte
// child index — 8 hot bytes per node against 20 in AoS form, so a
// cache block covers twice the search steps.
func (s *SplitBST) Search(key uint32) bool {
	i := s.t.Root()
	for i >= 0 {
		s.t.Machine().Tick(CompareCost)
		k := s.t.Load32(s.keySlot, i)
		if key == k {
			return true
		}
		if key < k {
			i = s.t.Kid(s.leftSlot, i)
		} else {
			i = s.t.Kid(s.rghtSlot, i)
		}
	}
	return false
}

// CheckSearchable verifies every key in [1, n] is reachable through
// the split layout.
func (s *SplitBST) CheckSearchable() error {
	for k := uint32(1); int64(k) <= s.t.N(); k++ {
		if !s.Search(k) {
			return fmt.Errorf("trees: split tree: key %d unreachable", k)
		}
	}
	return nil
}
