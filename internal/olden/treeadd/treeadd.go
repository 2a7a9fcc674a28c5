// Package treeadd reproduces the Olden treeadd benchmark (Table 2):
// build a binary tree, then sum the values stored in its nodes.
//
// The tree is created recursively at program start-up, which means
// the baseline allocator already lays nodes out in the dominant
// (depth-first) traversal order — the reason the paper's Figure 7
// shows only 10–20% gains for cache-conscious placement here, with
// prefetching competitive.
package treeadd

import (
	"ccl/internal/ccmorph"
	"ccl/internal/heap"
	"ccl/internal/layout"
	"ccl/internal/machine"
	"ccl/internal/memsys"
	"ccl/internal/olden"
	"ccl/internal/telemetry"
)

// Node layout: value uint32 at +0, left at +4, right at +8 (4-byte
// simulated pointers).
const (
	offValue = 0
	offLeft  = 4
	offRight = 8
	// NodeSize is the tree element size.
	NodeSize = 12
)

// AddCost is the busy work per node visit (load-add-store dataflow).
const AddCost = 4

// Config sizes the benchmark.
type Config struct {
	// Depth gives 2^Depth - 1 nodes (the paper used 256K nodes,
	// depth 18).
	Depth int
	// Repeats is how many times the summing traversal runs.
	Repeats int
}

// DefaultConfig returns the scaled-down workload used by tests and
// the scaled harness.
func DefaultConfig() Config { return Config{Depth: 14, Repeats: 8} }

// PaperConfig returns the paper-scale workload (256K nodes).
func PaperConfig() Config { return Config{Depth: 18, Repeats: 8} }

// Nodes returns the node count for the config.
func (c Config) Nodes() int64 { return 1<<c.Depth - 1 }

// Run executes treeadd under the environment's variant and returns
// its result. The checksum is the final sum and must be identical
// across variants.
func Run(env olden.Env, cfg Config) olden.Result {
	m := env.M

	var counter uint32
	var build func(depth int, parent memsys.Addr) memsys.Addr
	build = func(depth int, parent memsys.Addr) memsys.Addr {
		if depth == 0 {
			return memsys.NilAddr
		}
		n := heap.MustAllocHint(env.Alloc, NodeSize, env.Variant.Hint(parent))
		counter++
		m.Store32(n.Add(offValue), counter)
		m.StoreAddr(n.Add(offLeft), build(depth-1, n))
		m.StoreAddr(n.Add(offRight), build(depth-1, n))
		return n
	}
	root := build(cfg.Depth, memsys.NilAddr)

	if colorFrac, ok := env.Variant.MorphColorFrac(); ok {
		// Olden programs never free; the old copies become garbage,
		// which is ccmorph's documented memory cost, not a time cost.
		newRoot, _, err := ccmorph.Reorganize(m, root, Layout(), olden.NewRegion(m, colorFrac), ccmorph.SubtreeCluster, nil)
		if err != nil {
			// Degrade: copy-then-commit left the original tree intact;
			// sum it in its built layout.
			newRoot = root
		}
		root = newRoot
	}

	if env.Profile != nil {
		RegisterNodes(env.Profile, "treeadd-node", m, root)
	}

	var total uint64
	sw := env.Variant.SW()
	var sum func(n memsys.Addr) uint64
	sum = func(n memsys.Addr) uint64 {
		if n.IsNil() {
			return 0
		}
		m.Tick(AddCost)
		v := uint64(m.Load32(n.Add(offValue)))
		l := m.LoadAddr(n.Add(offLeft))
		r := m.LoadAddr(n.Add(offRight))
		if sw {
			m.Prefetch(l)
			m.Prefetch(r)
		}
		return v + sum(l) + sum(r)
	}
	for i := 0; i < cfg.Repeats; i++ {
		total = sum(root)
	}

	return olden.Result{
		Benchmark: "treeadd",
		Variant:   env.Variant,
		Stats:     m.Stats(),
		HeapBytes: env.Alloc.HeapBytes(),
		Check:     total,
	}
}

// FieldMap describes the treeadd element layout for field-level miss
// attribution.
func FieldMap() layout.FieldMap {
	return layout.MustFieldMap("treeadd-node", NodeSize,
		layout.Field{Name: "value", Offset: offValue, Size: 4},
		layout.Field{Name: "left", Offset: offLeft, Size: 4},
		layout.Field{Name: "right", Offset: offRight, Size: 4},
	)
}

// RegisterNodes registers the live tree under label — one range per
// node, walked host-side through the arena — and attaches the field
// map. Run calls it when env.Profile is set; callers profiling a tree
// they built directly can use it too.
func RegisterNodes(rm *telemetry.RegionMap, label string, m *machine.Machine, root memsys.Addr) {
	var addrs []memsys.Addr
	var walk func(n memsys.Addr)
	walk = func(n memsys.Addr) {
		if n.IsNil() {
			return
		}
		addrs = append(addrs, n)
		walk(m.Arena.LoadAddr(n.Add(offLeft)))
		walk(m.Arena.LoadAddr(n.Add(offRight)))
	}
	walk(root)
	rm.RegisterElems(label, addrs, NodeSize)
	rm.SetFieldMap(label, FieldMap())
}

// Layout is the ccmorph template for treeadd nodes.
func Layout() ccmorph.Layout {
	return ccmorph.Layout{
		NodeSize: NodeSize,
		MaxKids:  2,
		Kid: func(m *machine.Machine, n memsys.Addr, i int) memsys.Addr {
			if i == 1 {
				return m.LoadAddr(n.Add(offLeft))
			}
			return m.LoadAddr(n.Add(offRight))
		},
		SetKid: func(m *machine.Machine, n memsys.Addr, i int, kid memsys.Addr) {
			if i == 1 {
				m.StoreAddr(n.Add(offLeft), kid)
				return
			}
			m.StoreAddr(n.Add(offRight), kid)
		},
	}
}
