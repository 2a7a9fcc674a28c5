// Field map and profiler registration for the BST: the glue between
// the microbenchmark tree and the field-level miss profiler
// (internal/profile). The BST exports its element layout as a
// layout.FieldMap and can register every live node with a telemetry
// RegionMap, one range per node — per-element registration keeps field
// resolution exact even though the boundary-tag heap's headers break
// any whole-heap stride.

package trees

import (
	"ccl/internal/layout"
	"ccl/internal/memsys"
	"ccl/internal/telemetry"
)

// BSTFieldMap describes the BST element layout (key, child pointers,
// satellite value) for field-level miss attribution.
func BSTFieldMap() layout.FieldMap {
	return layout.MustFieldMap("bst-node", BSTNodeSize,
		layout.Field{Name: "key", Offset: bstOffKey, Size: 4},
		layout.Field{Name: "left", Offset: bstOffLeft, Size: 4},
		layout.Field{Name: "right", Offset: bstOffRight, Size: 4},
		layout.Field{Name: "value", Offset: bstOffValue, Size: 8},
	)
}

// RegisterNodes registers every live node under label — one range per
// node, walked host-side through the arena so registration itself
// costs no simulated cycles — and attaches the BST field map. Call it
// after Build (or again under a new label after Morph; ranges must not
// overlap live registrations, so use a fresh RegionMap or distinct
// address space per phase).
func (t *BST) RegisterNodes(rm *telemetry.RegionMap, label string) {
	var addrs []memsys.Addr
	var walk func(n memsys.Addr)
	walk = func(n memsys.Addr) {
		if n.IsNil() {
			return
		}
		addrs = append(addrs, n)
		walk(t.m.Arena.LoadAddr(n.Add(bstOffLeft)))
		walk(t.m.Arena.LoadAddr(n.Add(bstOffRight)))
	}
	walk(t.root)
	rm.RegisterElems(label, addrs, BSTNodeSize)
	rm.SetFieldMap(label, BSTFieldMap())
}
