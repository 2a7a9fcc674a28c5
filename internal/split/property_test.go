// Metamorphic properties of the hot/cold splitter, over adversarial
// insertion-order topologies (sticks, zig-zags, heavy duplication)
// rather than the balanced trees the unit tests use. Each check
// splits a raw BST and demands: bit-exact payload round-trip through
// Reassemble, preserved in-order traversal on the split form itself,
// an untouched original, and — composed with coloring — no element
// straddling a stripe boundary. Failures shrink to a minimal
// insertion sequence via internal/shrink.
package split_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"ccl/internal/cache"
	"ccl/internal/heap"
	"ccl/internal/layout"
	"ccl/internal/machine"
	"ccl/internal/memsys"
	"ccl/internal/profile"
	"ccl/internal/shrink"
	"ccl/internal/split"
	"ccl/internal/trees"
)

// BST node member offsets (trees.BSTFieldMap's layout), for building
// raw insertion trees without the balanced-build path.
const (
	offKey   = 0
	offLeft  = 4
	offRight = 8
	offValue = 12
)

// stampBytes derives the 8-byte satellite payload from a key: the
// bits the round-trip must not lose.
func stampBytes(key uint32) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], 0xabcd_0000_0000_0000|uint64(key)*0x9e3779b9)
	return b[:]
}

// buildRawBST inserts keys in order (duplicates ignored) into an
// unbalanced BST of 20-byte nodes, stamping every value.
func buildRawBST(m *machine.Machine, alloc heap.Allocator, keys []uint32) (memsys.Addr, int64) {
	newNode := func(key uint32) memsys.Addr {
		a := heap.MustAlloc(alloc, trees.BSTNodeSize)
		m.Store32(a.Add(offKey), key)
		m.StoreAddr(a.Add(offLeft), memsys.NilAddr)
		m.StoreAddr(a.Add(offRight), memsys.NilAddr)
		m.Cache.Access(a.Add(offValue), 8, cache.Store)
		m.Arena.WriteBytes(a.Add(offValue), stampBytes(key))
		return a
	}
	root := memsys.NilAddr
	var n int64
	for _, key := range keys {
		if root.IsNil() {
			root = newNode(key)
			n++
			continue
		}
		at := root
		for {
			k := m.Load32(at.Add(offKey))
			if key == k {
				break
			}
			off := int64(offLeft)
			if key > k {
				off = offRight
			}
			next := m.LoadAddr(at.Add(off))
			if next.IsNil() {
				m.StoreAddr(at.Add(off), newNode(key))
				n++
				break
			}
			at = next
		}
	}
	return root, n
}

// inOrderKeys walks the raw tree in order.
func inOrderKeys(m *machine.Machine, root memsys.Addr) []uint32 {
	var keys []uint32
	var walk func(a memsys.Addr)
	walk = func(a memsys.Addr) {
		if a.IsNil() {
			return
		}
		walk(m.LoadAddr(a.Add(offLeft)))
		keys = append(keys, m.Load32(a.Add(offKey)))
		walk(m.LoadAddr(a.Add(offRight)))
	}
	walk(root)
	return keys
}

// splitInOrder walks the split tree in order by index, reading each
// element's key from wherever the partition put it.
func splitInOrder(tr *split.Tree) []uint32 {
	m := tr.Machine()
	part := tr.Partition()
	keySlot, keyHot := tr.HotField("key")
	keyCold := -1
	for c, f := range part.Cold {
		if f.Name == "key" {
			keyCold = c
		}
	}
	key := func(i int64) uint32 {
		if keyHot {
			return tr.Load32(keySlot, i)
		}
		return m.Load32(tr.ColdAddr(keyCold, i))
	}
	var keys []uint32
	var walk func(i int64)
	walk = func(i int64) {
		if i < 0 {
			return
		}
		walk(tr.Kid(0, i))
		keys = append(keys, key(i))
		walk(tr.Kid(1, i))
	}
	walk(tr.Root())
	return keys
}

// pinsOnlyProfile plans with no profiled heat at all: only the link
// pins go hot, so even the key rides in the cold bank — the cold-start
// degenerate partition.
func planPartition(pinsOnly bool) (split.Partition, error) {
	sp := searchProfile()
	if pinsOnly {
		sp = profile.StructProfile{}
	}
	return split.Plan(trees.BSTFieldMap(), sp, "left", "right")
}

// checkSplitRoundTrip is the property one input exercises end to end.
func checkSplitRoundTrip(keys []uint32, frac float64, pinsOnly bool) error {
	if len(keys) == 0 {
		return nil
	}
	m := machine.NewScaled(64)
	alloc := heap.New(m.Arena)
	root, n := buildRawBST(m, alloc, keys)
	before := inOrderKeys(m, root)

	part, err := planPartition(pinsOnly)
	if err != nil {
		return fmt.Errorf("Plan: %w", err)
	}
	geo := layout.FromLevel(m.Cache.LastLevel())
	region, err := layout.NewRegion(m.Arena, geo, frac)
	if err != nil {
		return err
	}
	tr, st, err := split.Split(m, root, part, []string{"left", "right"}, region, nil)
	if err != nil {
		return fmt.Errorf("Split: %w", err)
	}
	if st.Nodes != n {
		return fmt.Errorf("split %d nodes, built %d", st.Nodes, n)
	}

	// In-order traversal survives on the split form itself.
	after := splitInOrder(tr)
	if len(after) != len(before) {
		return fmt.Errorf("split in-order: %d keys, want %d", len(after), len(before))
	}
	for i := range before {
		if before[i] != after[i] {
			return fmt.Errorf("split in-order key %d: got %d, want %d", i, after[i], before[i])
		}
	}

	// The original tree is untouched (copy-then-commit).
	if orig := inOrderKeys(m, root); len(orig) != len(before) {
		return fmt.Errorf("original tree mutated: %d keys, want %d", len(orig), len(before))
	}

	// Coloring composes without an element straddling a stripe
	// boundary: hot fields and cold records are placed whole.
	if frac > 0 {
		col, cerr := layout.NewColoring(geo, frac)
		if cerr != nil {
			return fmt.Errorf("NewColoring: %w", cerr)
		}
		for i := int64(0); i < n; i++ {
			for f, hf := range part.Hot {
				a := tr.HotAddr(f, i)
				if col.IsHot(a) != col.IsHot(a.Add(hf.Size-1)) {
					return fmt.Errorf("element %d hot field %s straddles the color boundary at %v", i, hf.Name, a)
				}
			}
			if len(part.Cold) > 0 {
				a := tr.ColdAddr(0, i)
				if col.IsHot(a) != col.IsHot(a.Add(part.ColdStride()-1)) {
					return fmt.Errorf("element %d cold record straddles the color boundary at %v", i, a)
				}
			}
		}
	}

	// Reassemble inverts the split bit-exactly: every node's payload
	// spans (key and value — the kid pointers are necessarily fresh
	// addresses) match the original, structure included.
	back, err := tr.Reassemble(heap.New(m.Arena))
	if err != nil {
		return fmt.Errorf("Reassemble: %w", err)
	}
	var cmp func(a, b memsys.Addr) error
	cmp = func(a, b memsys.Addr) error {
		if a.IsNil() != b.IsNil() {
			return fmt.Errorf("structure mismatch: %v vs %v", a, b)
		}
		if a.IsNil() {
			return nil
		}
		for _, span := range [][2]int64{{offKey, offLeft}, {offValue, trees.BSTNodeSize}} {
			ob := make([]byte, span[1]-span[0])
			rb := make([]byte, span[1]-span[0])
			m.Arena.ReadBytes(a.Add(span[0]), ob)
			m.Arena.ReadBytes(b.Add(span[0]), rb)
			for i := range ob {
				if ob[i] != rb[i] {
					return fmt.Errorf("node %v byte %d+%d: %#x round-tripped to %#x",
						a, span[0], i, ob[i], rb[i])
				}
			}
		}
		if err := cmp(m.LoadAddr(a.Add(offLeft)), m.LoadAddr(b.Add(offLeft))); err != nil {
			return err
		}
		return cmp(m.LoadAddr(a.Add(offRight)), m.LoadAddr(b.Add(offRight)))
	}
	return cmp(root, back)
}

// genKeys draws an insertion sequence biased toward the topologies
// that stress placement: duplicates, sorted (stick) runs, tiny trees.
func genKeys(rng *rand.Rand) []uint32 {
	n := 1 + rng.Intn(250)
	keys := make([]uint32, n)
	span := 1 + rng.Intn(2*n)
	for i := range keys {
		keys[i] = uint32(rng.Intn(span))
	}
	if rng.Intn(4) == 0 {
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	}
	return keys
}

// TestSplitRoundTripProperty: splitting any reachable BST topology,
// with or without coloring, with a profiled or a cold-start
// partition, must round-trip payloads bit-exactly and preserve
// traversal on both forms.
func TestSplitRoundTripProperty(t *testing.T) {
	cases := []struct {
		frac     float64
		pinsOnly bool
	}{
		{0, false}, {0.5, false}, {0.5, true},
	}
	for round, c := range cases {
		c := c
		shrink.Check(t, int64(300+round), 50, genKeys,
			func(keys []uint32) bool {
				return checkSplitRoundTrip(keys, c.frac, c.pinsOnly) != nil
			})
	}
}

// TestSplitShrinksFailingCase proves shrinking works on this input
// shape: a synthetic bug keyed to one value must reduce to a
// single-element sequence.
func TestSplitShrinksFailingCase(t *testing.T) {
	keys := make([]uint32, 120)
	rng := rand.New(rand.NewSource(13))
	for i := range keys {
		keys[i] = uint32(rng.Intn(900))
	}
	keys[41] = 313131
	fails := func(ks []uint32) bool {
		if checkSplitRoundTrip(ks, 0.5, false) != nil {
			return true
		}
		for _, k := range ks {
			if k == 313131 {
				return true
			}
		}
		return false
	}
	min := shrink.Slice(keys, fails)
	if len(min) != 1 || min[0] != 313131 {
		t.Fatalf("shrunk to %v, want [313131]", min)
	}
}
