// Package perimeter reproduces the Olden perimeter benchmark
// (Table 2): build a quadtree over a binary image and compute the
// total perimeter of the black region using Samet's neighbor-finding
// algorithm, which chases parent pointers up the tree and descends
// back down adjacent edges.
//
// The quadtree is built recursively at start-up (depth-first
// allocation order), so — as the paper observes for treeadd and
// perimeter — the baseline layout already matches the dominant
// traversal order and cache-conscious placement buys a modest
// 10–20%.
package perimeter

import (
	"math/rand"

	"ccl/internal/ccmorph"
	"ccl/internal/heap"
	"ccl/internal/machine"
	"ccl/internal/memsys"
	"ccl/internal/olden"
)

// Quadtree node layout. Color and quadrant size are packed into one
// word (color in the low byte, log2(size) above it), as the original
// C program's small fields pack: the 24-byte element gives k = 5 per
// 128-byte line — a complete one-level subtree (parent plus all four
// children) per cache block.
const (
	qtMeta   = 0 // uint32: color | log2(size)<<8
	qtParent = 4
	qtNW     = 8
	qtNE     = 12
	qtSW     = 16
	qtSE     = 20
	// NodeSize is sizeof(struct QuadTree).
	NodeSize = 24
)

// Colors.
const (
	White = 0
	Black = 1
	Grey  = 2
)

// VisitCost is busy work per node visit.
const VisitCost = 4

// Config sizes the benchmark.
type Config struct {
	// ImageSize is the square image's side (a power of two; the
	// paper used 4096).
	ImageSize int
	// Circles is how many random blobs the synthetic image holds.
	Circles int
	// Repeats re-runs the perimeter computation.
	Repeats int
	// Seed drives image generation.
	Seed int64
}

// DefaultConfig returns the scaled workload.
func DefaultConfig() Config { return Config{ImageSize: 256, Circles: 12, Repeats: 6, Seed: 5} }

// PaperConfig returns the paper-scale workload (4K x 4K image).
func PaperConfig() Config { return Config{ImageSize: 4096, Circles: 24, Repeats: 6, Seed: 5} }

// image is the host-side synthetic bitmap the tree is built from (the
// original builds its tree from a generator too; the image itself is
// never a simulated structure).
type image struct {
	size    int
	circles [][3]int // x, y, r
}

func newImage(cfg Config) *image {
	rng := rand.New(rand.NewSource(cfg.Seed))
	img := &image{size: cfg.ImageSize}
	for i := 0; i < cfg.Circles; i++ {
		r := cfg.ImageSize/16 + rng.Intn(cfg.ImageSize/6)
		img.circles = append(img.circles, [3]int{
			rng.Intn(cfg.ImageSize), rng.Intn(cfg.ImageSize), r,
		})
	}
	return img
}

func (img *image) black(x, y int) bool {
	for _, c := range img.circles {
		dx, dy := x-c[0], y-c[1]
		if dx*dx+dy*dy <= c[2]*c[2] {
			return true
		}
	}
	return false
}

// uniform reports whether the quadrant [x,x+s) x [y,y+s) is all one
// color, sampling every pixel at leaf scale and corners+center above
// (sufficient for smooth circle blobs and deterministic).
func (img *image) uniform(x, y, s int) (bool, uint32) {
	first := img.black(x, y)
	if s == 1 {
		return true, colorOf(first)
	}
	step := s / 8
	if step < 1 {
		step = 1
	}
	for dx := 0; dx <= s-1; dx += step {
		for dy := 0; dy <= s-1; dy += step {
			if img.black(x+dx, y+dy) != first {
				return false, 0
			}
		}
	}
	return true, colorOf(first)
}

func colorOf(black bool) uint32 {
	if black {
		return Black
	}
	return White
}

// packMeta packs a color and quadrant side length into one word.
func packMeta(color uint32, size int) uint32 {
	lg := uint32(0)
	for s := size; s > 1; s >>= 1 {
		lg++
	}
	return color | lg<<8
}

func metaColor(v uint32) uint32 { return v & 0xFF }
func metaSize(v uint32) uint64  { return 1 << (v >> 8) }

type bench struct {
	env olden.Env
	m   *machine.Machine
	img *image
}

// Run builds the quadtree and computes the black region's perimeter
// (the checksum) Repeats times.
func Run(env olden.Env, cfg Config) olden.Result {
	if cfg.ImageSize < 2 || cfg.ImageSize&(cfg.ImageSize-1) != 0 {
		panic("perimeter: ImageSize must be a power of two >= 2")
	}
	b := &bench{env: env, m: env.M, img: newImage(cfg)}
	root := b.build(0, 0, cfg.ImageSize, memsys.NilAddr)

	if frac, ok := env.Variant.MorphColorFrac(); ok {
		// Olden programs never free; old copies become garbage.
		newRoot, _, err := ccmorph.Reorganize(b.m, root, Layout(), olden.NewRegion(b.m, frac), ccmorph.SubtreeCluster, nil)
		if err != nil {
			// Degrade: copy-then-commit left the original quadtree
			// intact; traverse it in its built layout.
			newRoot = root
		}
		root = newRoot
	}

	var per uint64
	for i := 0; i < cfg.Repeats; i++ {
		per = b.perimeter(root)
	}

	return olden.Result{
		Benchmark: "perimeter",
		Variant:   env.Variant,
		Stats:     b.m.Stats(),
		HeapBytes: env.Alloc.HeapBytes(),
		Check:     per,
	}
}

// build allocates the quadtree for quadrant (x, y, s) under parent.
func (b *bench) build(x, y, s int, parent memsys.Addr) memsys.Addr {
	m := b.m
	n := heap.MustAllocHint(b.env.Alloc, NodeSize, b.env.Variant.Hint(parent))
	m.StoreAddr(n.Add(qtParent), parent)
	for _, off := range []int64{qtNW, qtNE, qtSW, qtSE} {
		m.StoreAddr(n.Add(off), memsys.NilAddr)
	}
	if ok, col := b.img.uniform(x, y, s); ok {
		m.Store32(n.Add(qtMeta), packMeta(col, s))
		return n
	}
	m.Store32(n.Add(qtMeta), packMeta(Grey, s))
	h := s / 2
	m.StoreAddr(n.Add(qtNW), b.build(x, y, h, n))
	m.StoreAddr(n.Add(qtNE), b.build(x+h, y, h, n))
	m.StoreAddr(n.Add(qtSW), b.build(x, y+h, h, n))
	m.StoreAddr(n.Add(qtSE), b.build(x+h, y+h, h, n))
	return n
}

// Directions for neighbor finding.
type dir int

const (
	north dir = iota
	south
	east
	west
)

// kidOf loads the child in the given quadrant slot.
func (b *bench) kid(n memsys.Addr, off int64) memsys.Addr { return b.m.LoadAddr(n.Add(off)) }

// whichKid returns which quadrant slot node occupies under parent.
func (b *bench) whichKid(parent, node memsys.Addr) int64 {
	for _, off := range []int64{qtNW, qtNE, qtSW, qtSE} {
		if b.kid(parent, off) == node {
			return off
		}
	}
	panic("perimeter: node not a child of its parent")
}

// neighbor returns the adjacent node of size >= node's size in the
// given direction, or nil at the image boundary — Samet's algorithm,
// climbing parents and reflecting quadrants on the way down.
func (b *bench) neighbor(node memsys.Addr, d dir) memsys.Addr {
	m := b.m
	m.Tick(VisitCost)
	parent := m.LoadAddr(node.Add(qtParent))
	if parent.IsNil() {
		return memsys.NilAddr
	}
	q := b.whichKid(parent, node)

	// If the neighbor is within the same parent, return the sibling.
	var inner map[int64]int64
	switch d {
	case north:
		inner = map[int64]int64{qtSW: qtNW, qtSE: qtNE}
	case south:
		inner = map[int64]int64{qtNW: qtSW, qtNE: qtSE}
	case east:
		inner = map[int64]int64{qtNW: qtNE, qtSW: qtSE}
	case west:
		inner = map[int64]int64{qtNE: qtNW, qtSE: qtSW}
	}
	if to, ok := inner[q]; ok {
		return b.kid(parent, to)
	}
	// Otherwise climb: find the parent's neighbor and descend into
	// the mirrored quadrant.
	t := b.neighbor(parent, d)
	if t.IsNil() || metaColor(m.Load32(t.Add(qtMeta))) != Grey {
		return t
	}
	var mirror map[int64]int64
	switch d {
	case north:
		mirror = map[int64]int64{qtNW: qtSW, qtNE: qtSE}
	case south:
		mirror = map[int64]int64{qtSW: qtNW, qtSE: qtNE}
	case east:
		mirror = map[int64]int64{qtNE: qtNW, qtSE: qtSW}
	case west:
		mirror = map[int64]int64{qtNW: qtNE, qtSW: qtSE}
	}
	return b.kid(t, mirror[q])
}

// whiteEdge returns how much of the edge of length size facing the
// given node is white: white leaf -> whole edge, black -> none, grey
// -> recurse into the two children along the touching edge.
func (b *bench) whiteEdge(n memsys.Addr, d dir, size uint64) uint64 {
	m := b.m
	m.Tick(VisitCost)
	switch metaColor(m.Load32(n.Add(qtMeta))) {
	case White:
		return size
	case Black:
		return 0
	}
	// Grey: the children adjacent to a node in direction d (from
	// the node's perspective, the neighbor's near edge).
	var a, c int64
	switch d {
	case north: // neighbor is to the node's north; its south edge touches
		a, c = qtSW, qtSE
	case south:
		a, c = qtNW, qtNE
	case east: // neighbor to the east; its west edge touches
		a, c = qtNW, qtSW
	case west:
		a, c = qtNE, qtSE
	}
	half := size / 2
	return b.whiteEdge(b.kid(n, a), d, half) + b.whiteEdge(b.kid(n, c), d, half)
}

// perimeter sums, over all black leaves, the length of boundary
// shared with white area or the image edge.
func (b *bench) perimeter(root memsys.Addr) uint64 {
	m := b.m
	sw := b.env.Variant.SW()
	var total uint64
	var walk func(n memsys.Addr)
	walk = func(n memsys.Addr) {
		m.Tick(VisitCost)
		meta := m.Load32(n.Add(qtMeta))
		col := metaColor(meta)
		if col == Grey {
			kids := [4]memsys.Addr{
				b.kid(n, qtNW), b.kid(n, qtNE), b.kid(n, qtSW), b.kid(n, qtSE),
			}
			if sw {
				for _, k := range kids {
					m.Prefetch(k)
				}
			}
			for _, k := range kids {
				walk(k)
			}
			return
		}
		if col != Black {
			return
		}
		size := metaSize(meta)
		for _, d := range []dir{north, south, east, west} {
			nb := b.neighbor(n, d)
			if nb.IsNil() {
				total += size // image boundary
				continue
			}
			if metaSize(m.Load32(nb.Add(qtMeta))) < size {
				panic("perimeter: neighbor smaller than node")
			}
			total += b.whiteEdge(nb, d, size)
		}
	}
	walk(root)
	return total
}

// Layout is the ccmorph template for quadtree nodes (4 children plus
// a parent pointer).
func Layout() ccmorph.Layout {
	offs := []int64{qtNW, qtNE, qtSW, qtSE}
	return ccmorph.Layout{
		NodeSize: NodeSize,
		MaxKids:  4,
		Kid: func(m *machine.Machine, n memsys.Addr, i int) memsys.Addr {
			return m.LoadAddr(n.Add(offs[i-1]))
		},
		SetKid: func(m *machine.Machine, n memsys.Addr, i int, kid memsys.Addr) {
			m.StoreAddr(n.Add(offs[i-1]), kid)
		},
		HasParent: true,
		SetParent: func(m *machine.Machine, n, p memsys.Addr) {
			m.StoreAddr(n.Add(qtParent), p)
		},
	}
}
