// Unit tests for the hot/cold splitter. The heavier metamorphic
// properties (round-trip over random trees, stripe discipline under
// coloring, oracle replay) live in property_test.go and fuzz_test.go;
// this file pins the Plan/Split/Reassemble contracts
// on small, hand-checkable inputs. External test package: the
// fixtures build real BSTs via internal/trees, which itself imports
// split.
package split_test

import (
	"errors"
	"testing"

	"ccl/internal/cclerr"
	"ccl/internal/heap"
	"ccl/internal/layout"
	"ccl/internal/machine"
	"ccl/internal/memsys"
	"ccl/internal/profile"
	"ccl/internal/split"
	"ccl/internal/trees"
)

// searchProfile fakes the ranking a search workload produces: key and
// links hot, value cold.
func searchProfile() profile.StructProfile {
	return profile.StructProfile{
		Label:  "bst-nodes",
		Struct: "bst-node",
		Fields: []profile.FieldProfile{
			{Field: "key", Offset: 0, Size: 4, LLMisses: 100, Hot: true},
			{Field: "left", Offset: 4, Size: 4, LLMisses: 60, Hot: true},
			{Field: "right", Offset: 8, Size: 4, LLMisses: 55, Hot: true},
			{Field: "value", Offset: 12, Size: 8, LLMisses: 2},
		},
	}
}

func TestPlanPartition(t *testing.T) {
	part, err := split.Plan(trees.BSTFieldMap(), searchProfile(), "left", "right")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(part.Hot); got != 3 {
		t.Fatalf("hot fields = %d, want 3", got)
	}
	if part.Hot[0].Name != "key" { // profile rank order, hottest first
		t.Fatalf("hottest field = %q, want key", part.Hot[0].Name)
	}
	if len(part.Cold) != 1 || part.Cold[0].Name != "value" {
		t.Fatalf("cold fields = %v, want [value]", part.Cold)
	}
	if part.ColdStride() != 8 {
		t.Fatalf("cold stride = %d, want 8", part.ColdStride())
	}
}

func TestPlanColdStartPinsOnly(t *testing.T) {
	// No profile at all: only the pinned link fields go hot.
	part, err := split.Plan(trees.BSTFieldMap(), profile.StructProfile{}, "left", "right")
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Hot) != 2 || len(part.Cold) != 2 {
		t.Fatalf("partition = %d hot / %d cold, want 2/2", len(part.Hot), len(part.Cold))
	}
}

func TestPlanErrors(t *testing.T) {
	fm := trees.BSTFieldMap()
	if _, err := split.Plan(fm, profile.StructProfile{}); !errors.Is(err, cclerr.ErrInvalidArg) {
		t.Fatalf("no hot fields: err = %v, want ErrInvalidArg", err)
	}
	if _, err := split.Plan(fm, profile.StructProfile{}, "no-such-field"); !errors.Is(err, cclerr.ErrInvalidArg) {
		t.Fatalf("unknown pin: err = %v, want ErrInvalidArg", err)
	}
	bad := searchProfile()
	bad.Fields[0].Field = "no-such-field"
	if _, err := split.Plan(fm, bad); !errors.Is(err, cclerr.ErrInvalidArg) {
		t.Fatalf("profile/map mismatch: err = %v, want ErrInvalidArg", err)
	}
	if _, err := split.Plan(layout.FieldMap{}, searchProfile()); !errors.Is(err, cclerr.ErrInvalidArg) {
		t.Fatalf("empty field map: err = %v, want ErrInvalidArg", err)
	}
}

// buildFixture returns a machine, a random-order BST of n keys with
// distinctive satellite values, and its partition.
func buildFixture(t *testing.T, n int64) (*machine.Machine, *trees.BST, split.Partition) {
	t.Helper()
	m := machine.NewScaled(64)
	tree := trees.MustBuild(m, heap.New(m.Arena), n, trees.RandomOrder, 11)
	// Stamp every node's value with a key-derived pattern so the
	// round-trip test has payload bits to lose.
	for k := uint32(1); int64(k) <= n; k++ {
		stampValue(m, tree, k)
	}
	part, err := split.Plan(trees.BSTFieldMap(), searchProfile(), "left", "right")
	if err != nil {
		t.Fatal(err)
	}
	return m, tree, part
}

// stampValue writes a recognizable satellite value on the node
// holding key k, found by a raw descent.
func stampValue(m *machine.Machine, tree *trees.BST, k uint32) {
	n := tree.Root()
	for !n.IsNil() {
		key := m.Arena.Load32(n)
		if key == k {
			m.Arena.Store64(n.Add(12), 0xabcd_0000_0000+uint64(k)*3)
			return
		}
		if k < key {
			n = m.Arena.LoadAddr(n.Add(4))
		} else {
			n = m.Arena.LoadAddr(n.Add(8))
		}
	}
}

func TestSplitSearchable(t *testing.T) {
	for _, frac := range []float64{0, 0.5} {
		m, tree, part := buildFixture(t, 300)
		cfg := split.Config{Geometry: layout.FromLevel(m.Cache.LastLevel()), ColorFrac: frac}
		st, stats, err := tree.Split(part, cfg, nil)
		if err != nil {
			t.Fatalf("frac %v: %v", frac, err)
		}
		if stats.Nodes != 300 || stats.HotFields != 3 || stats.ColdFields != 1 {
			t.Fatalf("frac %v: stats = %+v", frac, stats)
		}
		if err := st.CheckSearchable(); err != nil {
			t.Fatalf("frac %v: %v", frac, err)
		}
		if st.Search(301) || st.Search(0) {
			t.Fatalf("frac %v: found absent key", frac)
		}
		// The original is untouched (copy-then-commit with freeOld nil).
		if err := tree.CheckSearchable(); err != nil {
			t.Fatalf("frac %v: original damaged: %v", frac, err)
		}
	}
}

func TestSplitReassembleRoundTrip(t *testing.T) {
	const n = 257
	m, tree, part := buildFixture(t, n)
	// Snapshot every node's bytes, keyed by key, before splitting.
	want := make(map[uint32][]byte)
	var walk func(a memsys.Addr)
	walk = func(a memsys.Addr) {
		if a.IsNil() {
			return
		}
		buf := make([]byte, trees.BSTNodeSize)
		m.Arena.ReadBytes(a, buf)
		want[m.Arena.Load32(a)] = buf
		walk(m.Arena.LoadAddr(a.Add(4)))
		walk(m.Arena.LoadAddr(a.Add(8)))
	}
	walk(tree.Root())

	cfg := split.Config{Geometry: layout.FromLevel(m.Cache.LastLevel()), ColorFrac: 0.5}
	st, _, err := tree.Split(part, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	root, err := st.Tree().Reassemble(heap.New(m.Arena))
	if err != nil {
		t.Fatal(err)
	}
	// Every reassembled node must match its original bit-for-bit in
	// all non-pointer fields, and the shape must reconnect the same
	// key set.
	var seen int
	walk = func(a memsys.Addr) {
		if a.IsNil() {
			return
		}
		seen++
		got := make([]byte, trees.BSTNodeSize)
		m.Arena.ReadBytes(a, got)
		w, ok := want[m.Arena.Load32(a)]
		if !ok {
			t.Fatalf("reassembled key %d never existed", m.Arena.Load32(a))
		}
		for _, span := range [][2]int{{0, 4}, {12, 20}} { // key, value: pointer fields relocate
			for i := span[0]; i < span[1]; i++ {
				if got[i] != w[i] {
					t.Fatalf("key %d: byte %d = %#x, want %#x", m.Arena.Load32(a), i, got[i], w[i])
				}
			}
		}
		walk(m.Arena.LoadAddr(a.Add(4)))
		walk(m.Arena.LoadAddr(a.Add(8)))
	}
	walk(root)
	if seen != n {
		t.Fatalf("reassembled %d nodes, want %d", seen, n)
	}
}

func TestSplitColoringStripeDiscipline(t *testing.T) {
	m, tree, part := buildFixture(t, 500)
	geo := layout.FromLevel(m.Cache.LastLevel())
	cfg := split.Config{Geometry: geo, ColorFrac: 0.5}
	st, stats, err := tree.Split(part, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.HotChunks == 0 {
		t.Fatal("coloring placed no hot chunks")
	}
	col, err := layout.NewColoring(geo, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// No element of any array may cross a color stripe boundary: its
	// first and last byte map to the same color.
	tr := st.Tree()
	for fi, f := range part.Hot {
		for i := int64(0); i < tr.N(); i++ {
			a := tr.HotAddr(fi, i)
			if col.IsHot(a) != col.IsHot(a.Add(f.Size-1)) {
				t.Fatalf("hot field %q elem %d straddles a stripe at %v", f.Name, i, a)
			}
		}
	}
	for ci := range part.Cold {
		for i := int64(0); i < tr.N(); i++ {
			a := tr.ColdAddr(ci, i)
			if col.IsHot(a) != col.IsHot(a.Add(part.Cold[ci].Size-1)) {
				t.Fatalf("cold field %d elem %d straddles a stripe at %v", ci, i, a)
			}
		}
	}
}

func TestSplitNotTree(t *testing.T) {
	m, tree, part := buildFixture(t, 50)
	// Corrupt: point some node's right child back at the root.
	var corrupt func(a memsys.Addr, depth int)
	corrupt = func(a memsys.Addr, depth int) {
		if a.IsNil() || depth > 3 {
			return
		}
		if depth == 3 {
			m.Arena.StoreAddr(a.Add(8), tree.Root())
			return
		}
		corrupt(m.Arena.LoadAddr(a.Add(4)), depth+1)
	}
	corrupt(tree.Root(), 0)
	cfg := split.Config{Geometry: layout.FromLevel(m.Cache.LastLevel())}
	_, stats, err := tree.Split(part, cfg, nil)
	if !errors.Is(err, cclerr.ErrNotTree) {
		t.Fatalf("err = %v, want ErrNotTree", err)
	}
	if stats.Aborted != 1 {
		t.Fatalf("stats = %+v, want Aborted 1", stats)
	}
}

func TestSplitWildPointerFaults(t *testing.T) {
	m, tree, part := buildFixture(t, 50)
	// Point a child at unmapped space: the traversal faults, Split
	// recovers into ErrNotTree, and the original stays usable minus
	// the corruption we made (left subtree intact).
	m.Arena.StoreAddr(tree.Root().Add(8), memsys.Addr(0x7fff_f000))
	cfg := split.Config{Geometry: layout.FromLevel(m.Cache.LastLevel())}
	_, stats, err := tree.Split(part, cfg, nil)
	if !errors.Is(err, cclerr.ErrNotTree) {
		t.Fatalf("err = %v, want ErrNotTree", err)
	}
	if stats.Aborted != 1 {
		t.Fatalf("stats = %+v, want Aborted 1", stats)
	}
}

func TestSplitValidateErrors(t *testing.T) {
	m, tree, part := buildFixture(t, 10)
	cfg := split.Config{Geometry: layout.FromLevel(m.Cache.LastLevel())}
	_ = m

	// Kid field not hot.
	bad := part
	bad.Hot = part.Hot[:2] // drops right
	bad.Cold = append([]layout.Field{}, part.Cold...)
	if _, _, err := split.Split(tree.Machine(), tree.Root(), bad, []string{"left", "right"},
		cfg, nil); !errors.Is(err, cclerr.ErrInvalidArg) {
		t.Fatalf("kid not hot: err = %v, want ErrInvalidArg", err)
	}

	// Incomplete cover.
	if _, _, err := split.Split(tree.Machine(), tree.Root(), bad, []string{"left"},
		cfg, nil); !errors.Is(err, cclerr.ErrInvalidArg) {
		t.Fatalf("incomplete cover: err = %v, want ErrInvalidArg", err)
	}

	// Wrong-size kid field.
	fm := trees.BSTFieldMap()
	var value layout.Field
	for _, f := range fm.Fields {
		if f.Name == "value" {
			value = f
		}
	}
	bad2 := part
	bad2.Hot = append(append([]layout.Field{}, part.Hot...), value)
	bad2.Cold = nil
	if _, _, err := split.Split(tree.Machine(), tree.Root(), bad2, []string{"value"},
		cfg, nil); !errors.Is(err, cclerr.ErrInvalidArg) {
		t.Fatalf("8-byte kid: err = %v, want ErrInvalidArg", err)
	}
}

func TestSplitEmptyTree(t *testing.T) {
	m := machine.NewScaled(64)
	part, err := split.Plan(trees.BSTFieldMap(), searchProfile(), "left", "right")
	if err != nil {
		t.Fatal(err)
	}
	cfg := split.Config{Geometry: layout.FromLevel(m.Cache.LastLevel())}
	st, stats, err := split.Split(m, memsys.NilAddr, part, []string{"left", "right"}, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.N() != 0 || st.Root() != -1 || stats.Nodes != 0 {
		t.Fatalf("empty split: n=%d root=%d stats=%+v", st.N(), st.Root(), stats)
	}
	if a, err := st.Reassemble(heap.New(m.Arena)); err != nil || !a.IsNil() {
		t.Fatalf("empty reassemble = %v, %v", a, err)
	}
}

func TestSplitFreeOld(t *testing.T) {
	m, tree, part := buildFixture(t, 64)
	cfg := split.Config{Geometry: layout.FromLevel(m.Cache.LastLevel())}
	var freed int
	if _, _, err := tree.Split(part, cfg, func(memsys.Addr) { freed++ }); err != nil {
		t.Fatal(err)
	}
	if freed != 64 {
		t.Fatalf("freed %d old nodes, want 64", freed)
	}
	_ = m
}
