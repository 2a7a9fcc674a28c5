// Package mst reproduces the Olden mst benchmark (Table 2): compute
// the minimum spanning tree of a graph whose adjacency structure is,
// per the paper, an "array of singly linked lists" — each vertex owns
// a chained hash table from neighbor id to edge weight, built at
// program start-up and never modified.
//
// The kernel is Prim's algorithm: every round walks the remaining
// vertices and performs one hash lookup each, so the hot loop chases
// short hash chains with no locality between them — the configuration
// in which the paper notes "incorrect placement incurs a high
// penalty" and ccmalloc-new-block shines.
package mst

import (
	"math/rand"

	"ccl/internal/ccmorph"
	"ccl/internal/heap"
	"ccl/internal/machine"
	"ccl/internal/memsys"
	"ccl/internal/olden"
)

// Vertex layout: next vertex, mindist scratch, hash-table pointer.
const (
	vtxNext    = 0 // Addr
	vtxMindist = 4 // uint32
	vtxHash    = 8 // Addr -> bucket array
	// VertexSize is sizeof(struct Vertex).
	VertexSize = 12
)

// Hash-chain entry layout.
const (
	entNext   = 0 // Addr
	entKey    = 4 // uint32 neighbor id
	entWeight = 8 // uint32
	// EntrySize is sizeof(struct HashEntry).
	EntrySize = 12
)

// Busy-work costs.
const (
	HashCost  = 5 // hash computation per lookup
	VisitCost = 3 // per chain entry / vertex visit
)

const infDist = ^uint32(0)

// Config sizes the benchmark.
type Config struct {
	// NumVert is the vertex count (paper: 512).
	NumVert int
	// EdgesPer is the average number of extra random edges per
	// vertex beyond the connectivity ring.
	EdgesPer int
	// Buckets is the per-vertex hash-table size.
	Buckets int
	// Seed drives edge selection and weights.
	Seed int64
}

// DefaultConfig returns the scaled workload.
func DefaultConfig() Config { return Config{NumVert: 256, EdgesPer: 10, Buckets: 4, Seed: 3} }

// PaperConfig returns the paper-scale workload (512 nodes).
func PaperConfig() Config { return Config{NumVert: 512, EdgesPer: 10, Buckets: 4, Seed: 3} }

type graph struct {
	env        olden.Env
	m          *machine.Machine
	cfg        Config
	vertices   []memsys.Addr // index = vertex id
	first      memsys.Addr   // head of the vertex list
	morphBytes int64
}

// Run builds the graph and computes its MST weight (the checksum).
func Run(env olden.Env, cfg Config) olden.Result {
	if cfg.NumVert < 2 || cfg.Buckets < 1 {
		panic("mst: need at least 2 vertices and 1 bucket")
	}
	g := &graph{env: env, m: env.M, cfg: cfg}
	g.build()

	if frac, ok := env.Variant.MorphColorFrac(); ok {
		g.morphChains(frac)
	}

	total := g.prim()

	return olden.Result{
		Benchmark: "mst",
		Variant:   env.Variant,
		Stats:     g.m.Stats(),
		HeapBytes: env.Alloc.HeapBytes() + g.morphBytes,
		Check:     total,
	}
}

// hash maps a neighbor id to a bucket (Knuth multiplicative).
func (g *graph) hash(key uint32) int64 {
	return int64((key * 2654435761) % uint32(g.cfg.Buckets))
}

// build creates vertices, bucket arrays, and symmetric edges: a ring
// for connectivity plus EdgesPer random edges per vertex.
func (g *graph) build() {
	m := g.m
	n := g.cfg.NumVert
	alloc := g.env.Alloc
	v := g.env.Variant

	// Vertex list, each hinted to its predecessor.
	g.vertices = make([]memsys.Addr, n)
	var prev memsys.Addr
	for i := 0; i < n; i++ {
		vx := heap.MustAllocHint(alloc, VertexSize, v.Hint(prev))
		m.StoreAddr(vx.Add(vtxNext), memsys.NilAddr)
		m.Store32(vx.Add(vtxMindist), infDist)
		if !prev.IsNil() {
			m.StoreAddr(prev.Add(vtxNext), vx)
		}
		g.vertices[i] = vx
		prev = vx
	}
	g.first = g.vertices[0]

	// Bucket arrays, hinted to their vertex.
	arrBytes := int64(g.cfg.Buckets) * 4
	for i := 0; i < n; i++ {
		arr := heap.MustAllocHint(alloc, arrBytes, v.Hint(g.vertices[i]))
		for b := int64(0); b < int64(g.cfg.Buckets); b++ {
			m.StoreAddr(arr.Add(b*4), memsys.NilAddr)
		}
		m.StoreAddr(g.vertices[i].Add(vtxHash), arr)
	}

	// Edges: ring + random, inserted symmetrically with weights
	// from a deterministic generator.
	rng := rand.New(rand.NewSource(g.cfg.Seed))
	addEdge := func(a, b int, w uint32) {
		g.insert(a, uint32(b), w)
		g.insert(b, uint32(a), w)
	}
	for i := 0; i < n; i++ {
		addEdge(i, (i+1)%n, uint32(rng.Intn(1000))+1)
	}
	for i := 0; i < n; i++ {
		for e := 0; e < g.cfg.EdgesPer/2; e++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			addEdge(i, j, uint32(rng.Intn(1000))+1)
		}
	}
}

// insert prepends an entry to vertex a's chain for neighbor key,
// hinting the new entry to the chain head (or to the bucket array
// slot when the chain is empty).
func (g *graph) insert(a int, key, w uint32) {
	m := g.m
	arr := m.LoadAddr(g.vertices[a].Add(vtxHash))
	slot := arr.Add(g.hash(key) * 4)
	head := m.LoadAddr(slot)
	hint := head
	if hint.IsNil() {
		hint = slot
	}
	e := heap.MustAllocHint(g.env.Alloc, EntrySize, g.env.Variant.Hint(hint))
	m.StoreAddr(e.Add(entNext), head)
	m.Store32(e.Add(entKey), key)
	m.Store32(e.Add(entWeight), w)
	m.StoreAddr(slot, e)
}

// lookup walks vertex a's chain for key, returning the weight or
// infDist.
func (g *graph) lookup(a memsys.Addr, key uint32) uint32 {
	m := g.m
	m.Tick(HashCost)
	arr := m.LoadAddr(a.Add(vtxHash))
	e := m.LoadAddr(arr.Add(g.hash(key) * 4))
	sw := g.env.Variant.SW()
	for !e.IsNil() {
		m.Tick(VisitCost)
		next := m.LoadAddr(e.Add(entNext))
		if sw {
			m.Prefetch(next)
		}
		if m.Load32(e.Add(entKey)) == key {
			return m.Load32(e.Add(entWeight))
		}
		e = next
	}
	return infDist
}

// prim computes the MST weight with Prim's algorithm over the vertex
// list, as Olden's mst does: each round relaxes every remaining
// vertex against the vertex just added (one hash lookup each), then
// extracts the minimum.
func (g *graph) prim() uint64 {
	m := g.m
	n := g.cfg.NumVert
	inTree := make([]bool, n)
	idOf := make(map[memsys.Addr]int, n)
	for i, a := range g.vertices {
		idOf[a] = i
	}

	inTree[0] = true
	last := uint32(0)
	var total uint64
	for added := 1; added < n; added++ {
		bestID, bestD := -1, infDist
		vx := g.first
		for !vx.IsNil() {
			m.Tick(VisitCost)
			id := idOf[vx]
			next := m.LoadAddr(vx.Add(vtxNext))
			if !inTree[id] {
				w := g.lookup(vx, last)
				d := m.Load32(vx.Add(vtxMindist))
				if w < d {
					d = w
					m.Store32(vx.Add(vtxMindist), d)
				}
				if d < bestD {
					bestD, bestID = d, id
				}
			}
			vx = next
		}
		if bestID < 0 || bestD == infDist {
			panic("mst: graph disconnected (ring edges missing?)")
		}
		inTree[bestID] = true
		total += uint64(bestD)
		last = uint32(bestID)
		// Reset mindist relative-to-last semantics: Olden keeps
		// cumulative mindist, which we mirror (no reset).
	}
	return total
}

// entryLayout is the ccmorph template for hash-chain entries.
func entryLayout() ccmorph.Layout {
	return ccmorph.Layout{
		NodeSize: EntrySize,
		MaxKids:  1,
		Kid: func(m *machine.Machine, n memsys.Addr, _ int) memsys.Addr {
			return m.LoadAddr(n.Add(entNext))
		},
		SetKid: func(m *machine.Machine, n memsys.Addr, _ int, kid memsys.Addr) {
			m.StoreAddr(n.Add(entNext), kid)
		},
	}
}

// morphChains reorganizes every hash chain once after construction
// (the structure never changes afterwards). One shared region keeps
// the chains from fighting over the hot region.
func (g *graph) morphChains(colorFrac float64) {
	m := g.m
	region := olden.NewRegion(m, colorFrac)
	for _, vx := range g.vertices {
		arr := m.LoadAddr(vx.Add(vtxHash))
		for b := int64(0); b < int64(g.cfg.Buckets); b++ {
			slot := arr.Add(b * 4)
			head := m.LoadAddr(slot)
			if head.IsNil() {
				continue
			}
			newHead, _, merr := ccmorph.Reorganize(m, head, entryLayout(), region, ccmorph.SubtreeCluster, nil)
			if merr != nil {
				// Degrade: the original chain is intact (copy-then-
				// commit); leave it in its old layout.
				continue
			}
			m.StoreAddr(slot, newHead)
		}
	}
	g.morphBytes = region.Claimed()
}
