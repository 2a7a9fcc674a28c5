// Package radiance is the reproduction's stand-in for the paper's
// RADIANCE macrobenchmark (§4.3, Figure 6): a ray caster whose scene
// is held in an octree.
//
// RADIANCE's octree is the "cubetree": it eliminates explicit node
// structures, much like an implicit heap (the paper notes this is why
// ccmalloc made no sense there). Each tree cell is one 4-byte word;
// an internal cell's word holds the address of a contiguous array of
// its 8 children's words; a leaf cell's word holds a tagged reference
// to its object list (or 0 when empty). The program builds this
// structure in depth-first order — the layout the paper's baseline
// measures — and the cache-conscious versions reorganize the 8-child
// arrays with ccmorph: subtree clustering packs a parent array with a
// child array per 64-byte L2 block (k = 2 for 32-byte elements), and
// coloring pins the root-most arrays, which every ray's point
// locations traverse, into a reserved cache region.
package radiance

import (
	"errors"
	"math"
	"math/rand"

	"ccl/internal/cache"
	"ccl/internal/cclerr"
	"ccl/internal/ccmorph"
	"ccl/internal/heap"
	"ccl/internal/layout"
	"ccl/internal/machine"
	"ccl/internal/memsys"
)

// Octree word encoding: 0 = empty leaf; low bit 0 = internal (the
// word is the child-array address); low bit 1 = leaf (word &^ 1 is
// the item-list address).
const (
	leafTag = 1
	// ArraySize is the element size ccmorph works with: one 8-child
	// array of 4-byte words.
	ArraySize = 32
)

// Busy-cycle costs.
const (
	DescendCost = 2  // octant selection per level
	TestCost    = 24 // ray-sphere intersection arithmetic
	StepCost    = 4  // ray advance
)

// Sphere geometry record in simulated memory: cx, cy, cz, r float64.
const sphereSize = 32

// Mode selects the Figure 6 bar.
type Mode int

const (
	// Base is RADIANCE's native depth-first octree layout.
	Base Mode = iota
	// Cluster applies ccmorph subtree clustering only.
	Cluster
	// ClusterColor applies clustering and coloring — the paper's
	// measured configuration (42% speedup).
	ClusterColor
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Base:
		return "base"
	case Cluster:
		return "clustering"
	case ClusterColor:
		return "clustering+coloring"
	default:
		return "mode?"
	}
}

// Config sizes the workload.
type Config struct {
	// Spheres in the random scene.
	Spheres int
	// MaxDepth bounds octree subdivision.
	MaxDepth int
	// LeafItems triggers subdivision when exceeded.
	LeafItems int
	// Width and Height size the rendered image; rays are cast in
	// scanline order, so adjacent rays walk adjacent cells — the
	// inter-ray coherence a renderer's octree traffic actually has.
	Width, Height int
	// Frames renders the image repeatedly, standing in for the
	// long-running renders over which RADIANCE amortizes a single
	// reorganization.
	Frames int
	// Bounces adds that many secondary (ambient) rays per hit, in
	// deterministic pseudo-random directions: the incoherent
	// Monte-Carlo traffic that dominates RADIANCE's memory
	// behaviour.
	Bounces int
	// Seed drives scene generation.
	Seed int64
	// TraversalOnly resets the cycle counters after construction
	// (and reorganization), measuring the rendering phase alone.
	// The full-run default matches the paper's methodology, which
	// includes the restructuring overhead.
	TraversalOnly bool
}

// DefaultConfig returns the scaled workload: the octree must dwarf
// the (scaled) L2 the way RADIANCE's scene octrees dwarfed 1 MB.
func DefaultConfig() Config {
	return Config{Spheres: 1500, MaxDepth: 8, LeafItems: 2, Width: 64, Height: 48, Frames: 4, Bounces: 2, Seed: 11}
}

// PaperConfig returns a paper-scale workload.
func PaperConfig() Config {
	return Config{Spheres: 8000, MaxDepth: 9, LeafItems: 2, Width: 320, Height: 240, Frames: 3, Bounces: 2, Seed: 11}
}

// Result reports one run.
type Result struct {
	Mode      Mode
	Stats     cache.Stats
	HeapBytes int64
	Check     uint64 // hits + sum of hit sphere ids
	Arrays    int64  // 8-child arrays in the octree
}

// Cycles returns total simulated time.
func (r Result) Cycles() int64 { return r.Stats.TotalCycles() }

// must adapts the library's checked allocation calls to the kernel's
// fail-fast policy (DESIGN.md §7): workloads are sized within the
// arena by construction, so an allocation failure here is a harness
// bug or an injected fault, and the bench runner's per-experiment
// recover turns the panic into a structured failure record.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

type sphere struct{ x, y, z, r float64 }

// hostNode is the construction-time octree (host side).
type hostNode struct {
	kids  [8]*hostNode
	items []int
	leaf  bool
}

type app struct {
	m      *machine.Machine
	alloc  *heap.Malloc
	cfg    Config
	scene  []sphere
	geom   memsys.Addr // sphere records in simulated memory
	root   memsys.Addr // root 8-child array
	arrays int64
}

// Run builds the scene and octree, optionally reorganizes it, casts
// rays, and reports the result. Machine construction is up to the
// caller so modes share identical cache configurations.
func Run(m *machine.Machine, mode Mode, cfg Config) Result {
	if cfg.MaxDepth < 1 || cfg.Spheres < 1 {
		panic("radiance: need at least one sphere and one level")
	}
	a := &app{m: m, alloc: heap.New(m.Arena), cfg: cfg}
	a.buildScene()
	a.buildOctree()

	if mode != Base {
		frac := 0.0
		if mode == ClusterColor {
			// A modest Color_const: the octree is only a few times
			// larger than the L2, so reserving too much cache for
			// the hot levels would starve the cold ones.
			frac = 0.25
		}
		a.morph(frac)
	}
	if cfg.TraversalOnly {
		m.ResetStats()
	}

	frames := cfg.Frames
	if frames < 1 {
		frames = 1
	}
	var check uint64
	for f := 0; f < frames; f++ {
		check = a.castAll()
	}

	return Result{
		Mode:      mode,
		Stats:     m.Stats(),
		HeapBytes: a.alloc.HeapBytes(),
		Check:     check,
		Arrays:    a.arrays,
	}
}

// buildScene writes the sphere records into simulated memory.
func (a *app) buildScene() {
	rng := rand.New(rand.NewSource(a.cfg.Seed))
	a.scene = make([]sphere, a.cfg.Spheres)
	a.geom = must(a.alloc.Alloc(int64(a.cfg.Spheres) * sphereSize))
	for i := range a.scene {
		s := sphere{
			x: rng.Float64(),
			y: rng.Float64(),
			z: rng.Float64(),
			r: 0.01 + 0.02*rng.Float64(),
		}
		a.scene[i] = s
		base := a.geom.Add(int64(i) * sphereSize)
		a.m.Arena.StoreFloat(base, s.x)
		a.m.Arena.StoreFloat(base.Add(8), s.y)
		a.m.Arena.StoreFloat(base.Add(16), s.z)
		a.m.Arena.StoreFloat(base.Add(24), s.r)
	}
}

// sphereTouchesCell is the conservative box-sphere overlap test used
// while building.
func (a *app) sphereTouchesCell(s sphere, x, y, z, half float64) bool {
	dx := math.Max(0, math.Abs(s.x-(x+half))-half)
	dy := math.Max(0, math.Abs(s.y-(y+half))-half)
	dz := math.Max(0, math.Abs(s.z-(z+half))-half)
	return dx*dx+dy*dy+dz*dz <= s.r*s.r
}

// buildOctree constructs the host tree, then writes it to simulated
// memory depth-first — the allocation order RADIANCE itself uses.
func (a *app) buildOctree() {
	var build func(x, y, z, size float64, items []int, depth int) *hostNode
	build = func(x, y, z, size float64, items []int, depth int) *hostNode {
		n := &hostNode{}
		if len(items) <= a.cfg.LeafItems || depth == a.cfg.MaxDepth {
			n.leaf = true
			n.items = items
			return n
		}
		half := size / 2
		for o := 0; o < 8; o++ {
			ox := x + half*float64(o&1)
			oy := y + half*float64((o>>1)&1)
			oz := z + half*float64((o>>2)&1)
			var sub []int
			for _, id := range items {
				if a.sphereTouchesCell(a.scene[id], ox, oy, oz, half/2) {
					sub = append(sub, id)
				}
			}
			n.kids[o] = build(ox, oy, oz, half, sub, depth+1)
		}
		return n
	}
	all := make([]int, len(a.scene))
	for i := range all {
		all[i] = i
	}
	root := build(0, 0, 0, 1, all, 0)

	// Depth-first write-out: allocate each 8-child array, then its
	// children's arrays (RADIANCE's native order).
	var emit func(n *hostNode) memsys.Addr
	emit = func(n *hostNode) memsys.Addr {
		arr := must(a.alloc.Alloc(ArraySize))
		a.arrays++
		for o := 0; o < 8; o++ {
			kid := n.kids[o]
			var word memsys.Addr
			switch {
			case kid == nil || (kid.leaf && len(kid.items) == 0):
				word = 0
			case kid.leaf:
				word = a.emitItems(kid.items) | leafTag
			default:
				word = emit(kid)
			}
			a.m.StoreAddr(arr.Add(int64(o)*4), word)
		}
		return arr
	}
	if root.leaf {
		// Degenerate scene: wrap in a single-level tree.
		wrapped := &hostNode{}
		for o := 0; o < 8; o++ {
			wrapped.kids[o] = &hostNode{leaf: true, items: root.items}
		}
		root = wrapped
	}
	a.root = emit(root)
}

// emitItems writes a leaf's item list: [count][id...].
func (a *app) emitItems(items []int) memsys.Addr {
	p := must(a.alloc.Alloc(int64(4 + 4*len(items))))
	a.m.Store32(p, uint32(len(items)))
	for i, id := range items {
		a.m.Store32(p.Add(int64(4+4*i)), uint32(id))
	}
	return p
}

// octLayout is the ccmorph template: elements are 8-child arrays;
// kid i is the i-th word when it names another array.
func octLayout() ccmorph.Layout {
	return ccmorph.Layout{
		NodeSize: ArraySize,
		MaxKids:  8,
		Kid: func(m *machine.Machine, n memsys.Addr, i int) memsys.Addr {
			w := m.LoadAddr(n.Add(int64(i-1) * 4))
			if w == 0 || w&leafTag != 0 {
				return memsys.NilAddr // empty or item-list leaf
			}
			return w
		},
		SetKid: func(m *machine.Machine, n memsys.Addr, i int, kid memsys.Addr) {
			m.StoreAddr(n.Add(int64(i-1)*4), kid)
		},
	}
}

// morph reorganizes the octree arrays, then relocates the leaf item
// lists into a fresh packed region in tree order so the restructured
// octree occupies a compact page range (leaving the lists behind in
// the old heap would grow, not shrink, the traversal's working set).
// The measurement includes this cost, as the paper's RADIANCE results
// do ("the performance results include the overhead of restructuring
// the octree").
func (a *app) morph(colorFrac float64) {
	geo := layout.FromLevel(a.m.Cache.LastLevel())
	octree := must(layout.NewRegion(a.m.Arena, geo, colorFrac)) // zero disables coloring
	root, _, err := ccmorph.Reorganize(a.m, a.root, octLayout(), octree, ccmorph.SubtreeCluster, nil)
	if err != nil {
		panic(err) // kernel fail-fast policy; see must
	}
	a.root = root

	// Everything else the rays touch heavily must stay out of the
	// reserved hot region, or it would evict the pinned tree levels
	// (coloring partitions the cache for ALL contemporaneously hot
	// data, Figure 2). With coloring on, item lists and the sphere
	// records move to the cold region; without it, item lists pack
	// into plain blocks. Data the region will not place — a list wider
	// than a block, a scene wider than a cold run, a vetoed placement —
	// keeps its old placement: nothing is lost, so the checksum holds.
	// The lists get a region of their own: in the octree's region they
	// would fill its last open block and continue its extents, a
	// different placement (Figure 6 pins this one).
	region := must(layout.NewRegion(a.m.Arena, geo, colorFrac))
	kept := func(err error) bool {
		if err != nil && !errors.Is(err, cclerr.ErrPlacementFailed) {
			panic(err) // kernel fail-fast policy; see must
		}
		return err != nil
	}
	var relocate func(arr memsys.Addr)
	relocate = func(arr memsys.Addr) {
		for o := 0; o < 8; o++ {
			slot := arr.Add(int64(o) * 4)
			w := a.m.LoadAddr(slot)
			if w == 0 {
				continue
			}
			if w&leafTag == 0 {
				relocate(w)
				continue
			}
			items := w &^ leafTag
			n := int64(4 + 4*a.m.Load32(items))
			dst, _, err := region.Pack(n, false)
			if kept(err) {
				continue
			}
			_ = a.m.Copy(dst, items, n) // dst is fresh: no overlap
			a.m.StoreAddr(slot, dst|leafTag)
		}
	}
	relocate(a.root)

	// Relocate the sphere records to a contiguous cold extent (the
	// intersect path indexes them by id, so contiguity is required).
	if _, colored := region.Coloring(); !colored {
		return
	}
	total := int64(len(a.scene)) * sphereSize
	if dst, err := region.Alloc(total, false); !kept(err) {
		_ = a.m.Copy(dst, a.geom, total) // dst is fresh: no overlap
		a.geom = dst
	}
}

// locate descends from the root to the leaf containing (x,y,z),
// returning the leaf word and the cell size. Every level loads one
// octree word — the pointer chase coloring accelerates.
func (a *app) locate(x, y, z float64) (word memsys.Addr, size float64) {
	cur := a.root
	cx, cy, cz := 0.0, 0.0, 0.0
	size = 1.0
	for depth := 0; ; depth++ {
		a.m.Tick(DescendCost)
		half := size / 2
		o := 0
		if x >= cx+half {
			o |= 1
			cx += half
		}
		if y >= cy+half {
			o |= 2
			cy += half
		}
		if z >= cz+half {
			o |= 4
			cz += half
		}
		w := a.m.LoadAddr(cur.Add(int64(o) * 4))
		size = half
		if w == 0 || w&leafTag != 0 {
			return w, size
		}
		cur = w
	}
}

// castAll renders the image in scanline order, spawning incoherent
// secondary rays at every primary hit, and accumulates the checksum
// over hit sphere ids.
func (a *app) castAll() uint64 {
	var check uint64
	w, h := a.cfg.Width, a.cfg.Height
	for j := 0; j < h; j++ {
		oz := (float64(j) + 0.5) / float64(h)
		for i := 0; i < w; i++ {
			oy := (float64(i) + 0.5) / float64(w)
			// Mild perspective: rays fan out around +x.
			dx, dy, dz := 1.0, (oy-0.5)*0.35, (oz-0.5)*0.35
			norm := math.Sqrt(dx*dx + dy*dy + dz*dz)
			id, ok := a.cast(0, oy, oz, dx/norm, dy/norm, dz/norm)
			if !ok {
				continue
			}
			check += uint64(id) + 1
			// Ambient bounces: deterministic pseudo-random
			// directions from the hit sphere's center region.
			sp := a.scene[id]
			st := uint64(id)*2654435761 + uint64(i)<<16 + uint64(j)
			for b := 0; b < a.cfg.Bounces; b++ {
				st = st*6364136223846793005 + 1442695040888963407
				bx := float64(st>>40&1023)/512 - 1
				by := float64(st>>20&1023)/512 - 1
				bz := float64(st&1023)/512 - 1
				n := math.Sqrt(bx*bx + by*by + bz*bz)
				if n < 1e-9 {
					continue
				}
				ox := clamp01(sp.x + (sp.r+1e-4)*bx/n)
				oyy := clamp01(sp.y + (sp.r+1e-4)*by/n)
				ozz := clamp01(sp.z + (sp.r+1e-4)*bz/n)
				if bid, bok := a.cast(ox, oyy, ozz, bx/n, by/n, bz/n); bok {
					check += uint64(bid) + 1
				}
			}
		}
	}
	return check
}

func clamp01(v float64) float64 { return math.Min(math.Max(v, 0), 0.999999) }

// cast marches one ray through leaf cells, testing the spheres of
// each visited leaf.
func (a *app) cast(x, y, z, dx, dy, dz float64) (int, bool) {
	const eps = 1e-6
	for step := 0; step < 256; step++ {
		if x < 0 || x >= 1 || y < 0 || y >= 1 || z < 0 || z >= 1 {
			return 0, false
		}
		word, size := a.locate(x, y, z)
		if word != 0 {
			items := word &^ leafTag
			cnt := int(a.m.Load32(items))
			bestID, bestT := -1, math.Inf(1)
			for k := 0; k < cnt; k++ {
				id := int(a.m.Load32(items.Add(int64(4 + 4*k))))
				if t, hit := a.intersect(id, x, y, z, dx, dy, dz); hit && t < bestT {
					bestID, bestT = id, t
				}
			}
			if bestID >= 0 && bestT <= size*2 {
				return bestID, true
			}
		}
		a.m.Tick(StepCost)
		x += dx * (size + eps)
		y += dy * (size + eps)
		z += dz * (size + eps)
	}
	return 0, false
}

// intersect loads the sphere's record and solves the quadratic.
func (a *app) intersect(id int, x, y, z, dx, dy, dz float64) (float64, bool) {
	a.m.Tick(TestCost)
	base := a.geom.Add(int64(id) * sphereSize)
	sx := a.m.LoadFloat(base)
	sy := a.m.LoadFloat(base.Add(8))
	sz := a.m.LoadFloat(base.Add(16))
	sr := a.m.LoadFloat(base.Add(24))
	ox, oy, oz := x-sx, y-sy, z-sz
	b := ox*dx + oy*dy + oz*dz
	c := ox*ox + oy*oy + oz*oz - sr*sr
	disc := b*b - c
	if disc < 0 {
		return 0, false
	}
	t := -b - math.Sqrt(disc)
	if t < 0 {
		return 0, false
	}
	return t, true
}
