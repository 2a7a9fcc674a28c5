// Package split implements the paper's second structure-layout
// transform (§3.2, "structure splitting"): partitioning a struct's
// fields into a hot portion and a cold portion, so the hot fields of
// many elements pack densely into cache blocks while the rarely-
// touched cold fields move out of the way.
//
// The partition is profile-driven: Plan consumes the hot/cold field
// ranking a profile.Report computed (fields covering >=90% of a
// struct's last-level misses are hot) and Split rebuilds a tree-like
// structure accordingly:
//
//   - each hot field becomes its own SoA-style chunked array, indexed
//     by element number, so a search that touches only hot fields
//     streams through k = floor(b/size) elements per block instead of
//     floor(b/e);
//   - the cold fields of each element pack into one cold overflow
//     record, linked to the hot portion by the shared element index
//     (the paper's "reference from the hot portion" with the indirection
//     cost folded into the index arithmetic);
//   - child pointers are rewritten as element indices, shrinking them
//     to 4 bytes and making the layout position-independent.
//
// Like ccmorph, Split is copy-then-commit: the split copy is built in
// fresh extents and the original structure is never mutated, so any
// error (non-tree input, exhausted arena, a vetoed placement) leaves
// the input fully usable and is reported with the cclerr taxonomy.
package split

import (
	"fmt"
	"slices"

	"ccl/internal/cclerr"
	"ccl/internal/heap"
	"ccl/internal/layout"
	"ccl/internal/machine"
	"ccl/internal/memsys"
	"ccl/internal/profile"
)

// SplitCost is the busy-cycle charge per element for the host-side
// bookkeeping of a split (index assignment, partition mapping) — the
// analogue of ccmorph.ClusterCost.
const SplitCost = 8

// nilIndex is the in-memory encoding of a nil child link: element
// indices are dense from zero, so all-ones is never a valid index.
const nilIndex = ^uint32(0)

// Partition is a validated hot/cold split of one structure type.
type Partition struct {
	// Source is the original AoS field map the partition was derived
	// from.
	Source layout.FieldMap
	// Hot lists the fields that stay in the hot working set, hottest
	// first (profile rank order, pinned fields last). Each becomes one
	// SoA array.
	Hot []layout.Field
	// Cold lists the remaining fields in offset order; together they
	// form the cold overflow record.
	Cold []layout.Field
}

// ColdStride returns the packed size of the cold overflow record.
func (p Partition) ColdStride() int64 {
	var n int64
	for _, f := range p.Cold {
		n += f.Size
	}
	return n
}

// Plan derives a Partition from a profiled field ranking: the fields
// sp flagged hot — in rank order, hottest first — plus the pinned
// fields (typically the link fields a traversal cannot live without),
// appended in the order given when the profile did not already rank
// them hot. Pseudo-fields ("(all)", "(padding)") are ignored. A field
// named by the profile or a pin that fm does not declare fails with
// cclerr.ErrInvalidArg, as does a plan with no hot fields at all —
// an empty profile with no pins leaves nothing to split for.
func Plan(fm layout.FieldMap, sp profile.StructProfile, pin ...string) (Partition, error) {
	if len(fm.Fields) == 0 || fm.Size <= 0 {
		return Partition{}, cclerr.Errorf(cclerr.ErrInvalidArg,
			"split: Plan: field map %q has no fields", fm.Struct)
	}
	byName := make(map[string]layout.Field, len(fm.Fields))
	for _, f := range fm.Fields {
		byName[f.Name] = f
	}
	hotSet := make(map[string]bool)
	var hot []layout.Field
	add := func(name, why string) error {
		f, ok := byName[name]
		if !ok {
			return cclerr.Errorf(cclerr.ErrInvalidArg,
				"split: Plan: %s field %q not in field map %q", why, name, fm.Struct)
		}
		if !hotSet[name] {
			hotSet[name] = true
			hot = append(hot, f)
		}
		return nil
	}
	for _, f := range sp.Fields {
		if f.Field == profile.WholeStruct || f.Field == profile.Padding {
			continue
		}
		if !f.Hot {
			continue
		}
		if err := add(f.Field, "profiled"); err != nil {
			return Partition{}, err
		}
	}
	for _, p := range pin {
		if err := add(p, "pinned"); err != nil {
			return Partition{}, err
		}
	}
	if len(hot) == 0 {
		return Partition{}, cclerr.Errorf(cclerr.ErrInvalidArg,
			"split: Plan: no hot fields for %q (empty profile and no pins)", fm.Struct)
	}
	var cold []layout.Field
	for _, f := range fm.Fields { // fm.Fields is offset-sorted
		if !hotSet[f.Name] {
			cold = append(cold, f)
		}
	}
	return Partition{Source: fm, Hot: hot, Cold: cold}, nil
}

// Stats reports what a split did.
type Stats struct {
	Nodes      int64 // elements split
	HotFields  int64 // SoA arrays created
	ColdFields int64 // fields in the cold overflow record
	HotBytes   int64 // payload bytes in the hot partition (per full structure)
	ColdBytes  int64 // payload bytes in the cold partition
	HotChunks  int64 // chunks placed in the colored hot region
	Chunks     int64 // total chunks across all arrays
	NewBytes   int64 // arena bytes claimed for the split layout
	Aborted    int64 // splits that failed and left the original in place
}

// soaArray is one field's chunked storage: element i lives at
// chunks[i/perChunk] + (i%perChunk)*elemSize. Chunking keeps every
// extent inside one color run, so coloring's stripe discipline holds
// for free; elements never straddle a chunk edge by construction.
type soaArray struct {
	elemSize int64
	perChunk int64
	chunks   []memsys.Addr
}

func (a *soaArray) addr(i int64) memsys.Addr {
	return a.chunks[i/a.perChunk].Add((i % a.perChunk) * a.elemSize)
}

// Tree is a split structure: one SoA array per hot field, a packed
// cold overflow array, and child links stored as element indices.
// Element 0 is always the root (indices are assigned in BFS discovery
// order, so low indices are the root-most — and hottest — elements).
type Tree struct {
	m    *machine.Machine
	part Partition
	n    int64

	hot       []soaArray // parallel to part.Hot
	hotByName map[string]int
	kidSlots  []int // indices into part.Hot for each kid field, in order

	cold     soaArray // packed cold records; zero elemSize when no cold fields
	coldOffs []int64  // packed offset of each part.Cold field
}

// N returns the number of elements.
func (t *Tree) N() int64 { return t.n }

// Machine returns the machine the split structure lives on.
func (t *Tree) Machine() *machine.Machine { return t.m }

// Root returns the root's element index (0), or -1 for an empty tree.
func (t *Tree) Root() int64 {
	if t.n == 0 {
		return -1
	}
	return 0
}

// Partition returns the partition the tree was split with.
func (t *Tree) Partition() Partition { return t.part }

// HotField resolves a hot field name to its array slot.
func (t *Tree) HotField(name string) (int, bool) {
	s, ok := t.hotByName[name]
	return s, ok
}

// HotAddr returns the address of element i's value in hot array f.
// Pure address arithmetic — the caller's load/store pays the cache.
func (t *Tree) HotAddr(f int, i int64) memsys.Addr { return t.hot[f].addr(i) }

// ColdAddr returns the address of element i's cold field c (indexed
// into Partition().Cold).
func (t *Tree) ColdAddr(c int, i int64) memsys.Addr {
	return t.cold.addr(i).Add(t.coldOffs[c])
}

// Load32 reads a 4-byte hot field of element i through the simulated
// cache.
func (t *Tree) Load32(f int, i int64) uint32 {
	return t.m.Load32(t.HotAddr(f, i))
}

// Kid returns element i's child index in kid slot s, or -1 for nil,
// charging the (4-byte) index load to the simulated cache.
func (t *Tree) Kid(s int, i int64) int64 {
	v := t.m.Load32(t.HotAddr(t.kidSlots[s], i))
	if v == nilIndex {
		return -1
	}
	return int64(v)
}

// placer hands out chunk extents from one region: hot while both the
// region's budget and the calling array's share have room, then cold
// (plain blocks when the region is uncolored).
type placer struct {
	region *layout.Region
	share  int64 // per-array hot budget in bytes
	chunk  int64 // chunk payload capacity in bytes
}

// newPlacer builds the chunk allocator over region. numHot is how
// many arrays will compete for the region's hot budget left: it is
// divided evenly among them, so every hot field keeps its root-most
// elements — the prefix every search touches, since indices are
// assigned in BFS order — in the reserved cache region, instead of
// the first array swallowing the whole budget.
func newPlacer(r *layout.Region, numHot int) *placer {
	g := r.Geometry()
	p := &placer{region: r, chunk: g.BlockSize}
	if col, ok := r.Coloring(); ok {
		p.share = r.HotLeft() / int64(numHot)
		// A chunk must fit inside one contiguous color run of either
		// color, so hot and cold arrays share one chunk geometry; it
		// must also fit the per-array hot share, or no chunk could
		// ever land hot.
		hotRun := col.HotSets * g.BlockSize
		coldRun := (g.Sets - col.HotSets) * g.BlockSize
		p.chunk = min(hotRun, coldRun)
		if p.share < p.chunk {
			p.chunk = p.share &^ (g.BlockSize - 1)
		}
		p.chunk = max(p.chunk, g.BlockSize)
	}
	return p
}

// alloc returns an extent of size bytes. wantHot asks for the colored
// hot region; it is honored while both the region's budget and the
// calling array's share (spent tracks it) have room. The bool reports
// where the extent landed.
func (p *placer) alloc(size int64, wantHot bool, spent int64) (memsys.Addr, bool, error) {
	hot := wantHot && p.region.HotLeft() >= size && spent+size <= p.share
	a, err := p.region.Alloc(size, hot)
	return a, hot, err
}

// Split rebuilds the tree rooted at root in split (hot SoA / cold
// overflow) form, placing its arrays in region: colored, the hottest
// arrays share the hot budget the region has left; uncolored, every
// chunk is a plain block. kidFields names the hot fields that hold
// child pointers, in traversal order — each must be a planned hot
// field of pointer size, since its values are rewritten to element
// indices. freeOld, if non-nil, reclaims every old element after the
// copy commits.
//
// Split is copy-then-commit with ccmorph.Reorganize's exact failure
// contract: on any error the original structure is untouched and
// still searchable, freeOld is never called, the region gets back the
// hot budget an aborted placement spent, and Stats carry Aborted=1.
// A structure that is not tree-like — an element reachable twice, or
// a wild pointer that faults the traversal — fails with
// cclerr.ErrNotTree; placement and arena failures surface as
// cclerr.ErrPlacementFailed / cclerr.ErrOutOfMemory.
func Split(m *machine.Machine, root memsys.Addr, part Partition, kidFields []string,
	region *layout.Region, freeOld func(memsys.Addr)) (tr *Tree, stats Stats, err error) {

	if err := validate(part, kidFields); err != nil {
		return nil, Stats{Aborted: 1}, err
	}

	t := &Tree{m: m, part: part, hotByName: make(map[string]int, len(part.Hot))}
	for i, f := range part.Hot {
		t.hotByName[f.Name] = i
	}
	for _, kf := range kidFields {
		t.kidSlots = append(t.kidSlots, t.hotByName[kf])
	}
	kidIsSlot := make(map[int]bool, len(t.kidSlots))
	for _, s := range t.kidSlots {
		kidIsSlot[s] = true
	}
	coldStride := part.ColdStride()
	off := int64(0)
	for _, f := range part.Cold {
		t.coldOffs = append(t.coldOffs, off)
		off += f.Size
	}

	if root.IsNil() {
		return t, Stats{}, nil
	}

	// See ccmorph.Reorganize: a corrupt structure faults
	// the traversal with a typed memsys.Fault; nothing old has been
	// modified, so recover into an ordinary ErrNotTree abort.
	defer func() {
		if r := recover(); r != nil {
			f, isFault := r.(memsys.Fault)
			if !isFault {
				panic(r)
			}
			tr, stats = nil, Stats{Aborted: 1}
			err = fmt.Errorf("split: traversal faulted: %w: %w", cclerr.ErrNotTree, f)
		}
	}()

	pl := newPlacer(region, len(part.Hot))
	for _, f := range part.Hot {
		if f.Size > pl.chunk {
			return nil, Stats{Aborted: 1}, cclerr.Errorf(cclerr.ErrPlacementFailed,
				"split: hot field %q (%d bytes) wider than %d-byte chunk", f.Name, f.Size, pl.chunk)
		}
	}
	if coldStride > pl.chunk {
		return nil, Stats{Aborted: 1}, cclerr.Errorf(cclerr.ErrPlacementFailed,
			"split: cold record (%d bytes) wider than %d-byte chunk", coldStride, pl.chunk)
	}

	// Phase 1: snapshot the structure in BFS order, assigning element
	// indices at discovery — so index 0 is the root and low indices
	// are the root-most elements, which the hot budget then covers.
	snap, err := takeSnapshot(m, root, part, t.kidSlots)
	if err != nil {
		return nil, Stats{Aborted: 1}, err
	}
	n := int64(len(snap.old))
	t.n = n
	m.Tick(SplitCost * n)

	stats = Stats{
		Nodes:      n,
		HotFields:  int64(len(part.Hot)),
		ColdFields: int64(len(part.Cold)),
	}
	for _, f := range part.Hot {
		stats.HotBytes += f.Size
	}
	stats.ColdBytes = coldStride

	// Phase 2: place the arrays. Hot arrays claim chunks in partition
	// order (hottest field first) so the colored budget covers the
	// fields the profile ranked highest; the cold overflow array is
	// always cold. A failure here leaves only unreferenced fresh
	// extents behind, and the region is rewound, so the next structure
	// placed into a shared region gets back the hot budget spent here.
	claimedBefore := region.Claimed()
	mark := region.Mark()
	t.hot = make([]soaArray, len(part.Hot))
	for i, f := range part.Hot {
		a, hotChunks, aerr := placeArray(pl, f.Size, n, true)
		if aerr != nil {
			region.Rewind(mark)
			return nil, Stats{Aborted: 1}, aerr
		}
		t.hot[i] = a
		stats.Chunks += int64(len(a.chunks))
		stats.HotChunks += hotChunks
	}
	if coldStride > 0 {
		a, _, aerr := placeArray(pl, coldStride, n, false)
		if aerr != nil {
			region.Rewind(mark)
			return nil, Stats{Aborted: 1}, aerr
		}
		t.cold = a
		stats.Chunks += int64(len(a.chunks))
	}

	// Phase 3: write every element into its split home, charging the
	// stores to the simulated cache. Writes touch only fresh extents;
	// the commit below is the only point of no return. The cold
	// fields are packed into one record, written with one store.
	cold := make([]byte, coldStride)
	nk := int64(len(t.kidSlots))
	for i := int64(0); i < n; i++ {
		buf := snap.buf[i*snap.size : (i+1)*snap.size]
		kids := snap.kids[i*nk : (i+1)*nk]
		for fi, f := range part.Hot {
			dst := t.hot[fi].addr(i)
			if kidIsSlot[fi] {
				// Which kid slot is this field? (kid fields are
				// distinct, so exactly one matches.)
				for s, slot := range t.kidSlots {
					if slot != fi {
						continue
					}
					v := nilIndex
					if kids[s] >= 0 {
						v = uint32(kids[s])
					}
					m.Store32(dst, v)
				}
				continue
			}
			m.WriteBytes(dst, buf[f.Offset:f.Offset+f.Size])
		}
		if coldStride > 0 {
			for ci, f := range part.Cold {
				copy(cold[t.coldOffs[ci]:], buf[f.Offset:f.Offset+f.Size])
			}
			m.WriteBytes(t.cold.addr(i), cold)
		}
	}

	// Commit: the split copy is complete; only now may the old
	// elements be reclaimed.
	if freeOld != nil {
		for _, a := range snap.old {
			freeOld(a)
		}
	}
	stats.NewBytes = region.Claimed() - claimedBefore
	return t, stats, nil
}

// placeArray claims the chunk list for one array of n elements and
// reports how many chunks landed in the colored hot region (always a
// prefix: the budget check is monotone in the bytes spent).
func placeArray(pl *placer, elemSize, n int64, wantHot bool) (soaArray, int64, error) {
	a := soaArray{elemSize: elemSize, perChunk: pl.chunk / elemSize}
	if a.perChunk < 1 {
		return soaArray{}, 0, cclerr.Errorf(cclerr.ErrPlacementFailed,
			"split: element of %d bytes wider than %d-byte chunk", elemSize, pl.chunk)
	}
	var hotChunks, spent int64
	for done := int64(0); done < n; done += a.perChunk {
		elems := n - done
		if elems > a.perChunk {
			elems = a.perChunk
		}
		addr, hot, err := pl.alloc(elems*elemSize, wantHot, spent)
		if err != nil {
			return soaArray{}, 0, err
		}
		if hot {
			hotChunks++
			spent += elems * elemSize
		}
		a.chunks = append(a.chunks, addr)
	}
	return a, hotChunks, nil
}

// validate checks the partition is a complete, disjoint cover of the
// source field map and that every kid field is a hot pointer-sized
// field.
func validate(part Partition, kidFields []string) error {
	if len(part.Source.Fields) == 0 || part.Source.Size <= 0 {
		return cclerr.Errorf(cclerr.ErrInvalidArg, "split: partition has no source field map")
	}
	if len(part.Hot) == 0 {
		return cclerr.Errorf(cclerr.ErrInvalidArg, "split: partition has no hot fields")
	}
	src := make(map[string]layout.Field, len(part.Source.Fields))
	for _, f := range part.Source.Fields {
		src[f.Name] = f
	}
	seen := make(map[string]bool)
	for _, f := range append(append([]layout.Field(nil), part.Hot...), part.Cold...) {
		s, ok := src[f.Name]
		if !ok || s != f {
			return cclerr.Errorf(cclerr.ErrInvalidArg,
				"split: field %q does not match source map %q", f.Name, part.Source.Struct)
		}
		if seen[f.Name] {
			return cclerr.Errorf(cclerr.ErrInvalidArg,
				"split: field %q partitioned twice", f.Name)
		}
		seen[f.Name] = true
	}
	if len(seen) != len(part.Source.Fields) {
		return cclerr.Errorf(cclerr.ErrInvalidArg,
			"split: partition covers %d of %d fields", len(seen), len(part.Source.Fields))
	}
	hot := make(map[string]layout.Field, len(part.Hot))
	for _, f := range part.Hot {
		hot[f.Name] = f
	}
	kseen := make(map[string]bool)
	for _, kf := range kidFields {
		f, ok := hot[kf]
		if !ok {
			return cclerr.Errorf(cclerr.ErrInvalidArg,
				"split: kid field %q is not a hot field", kf)
		}
		if f.Size != memsys.PtrSize {
			return cclerr.Errorf(cclerr.ErrInvalidArg,
				"split: kid field %q has size %d, want pointer size %d", kf, f.Size, memsys.PtrSize)
		}
		if kseen[kf] {
			return cclerr.Errorf(cclerr.ErrInvalidArg, "split: kid field %q named twice", kf)
		}
		kseen[kf] = true
	}
	return nil
}

// snapshot is the host-side copy of the structure the read pass
// takes, held flat: element i, numbered in BFS order, was read from
// old[i]; its bytes are buf[i*size:(i+1)*size] and its children's
// indices, one per kid slot, kids[i*len(kidSlots):] (-1 for nil).
type snapshot struct {
	size int64
	old  []memsys.Addr
	buf  []byte
	kids []int64
}

// takeSnapshot reads the structure once in BFS order, charging the
// cache for each element read: the element's bytes, then each kid
// slot's pointer. old doubles as the BFS queue, so a child's index is
// its queue position, fixed when it is discovered. An element
// reachable twice fails with cclerr.ErrNotTree.
func takeSnapshot(m *machine.Machine, root memsys.Addr, part Partition, kidSlots []int) (*snapshot, error) {
	s := &snapshot{size: part.Source.Size, old: []memsys.Addr{root}}
	var seen memsys.AddrSet
	seen.Add(root)
	for i := 0; i < len(s.old); i++ {
		a := s.old[i]
		s.buf = slices.Grow(s.buf, int(s.size))[:len(s.buf)+int(s.size)]
		m.ReadBytes(a, s.buf[int64(i)*s.size:])
		for _, slot := range kidSlots {
			ka := m.LoadAddr(a.Add(part.Hot[slot].Offset))
			if ka.IsNil() {
				s.kids = append(s.kids, -1)
				continue
			}
			if !seen.Add(ka) {
				return nil, cclerr.Errorf(cclerr.ErrNotTree,
					"split: element %v reachable twice", ka)
			}
			s.kids = append(s.kids, int64(len(s.old)))
			s.old = append(s.old, ka)
		}
	}
	return s, nil
}

// Reassemble writes the split structure back into AoS form — the
// inverse transform, used by the round-trip tests to prove splitting
// preserves every payload bit. Nodes are allocated from alloc in
// element-index order and child indices become pointers again.
// Construction-style raw arena writes; the result is a fresh copy,
// the split layout stays live.
func (t *Tree) Reassemble(alloc heap.Allocator) (memsys.Addr, error) {
	if t.n == 0 {
		return memsys.NilAddr, nil
	}
	size := t.part.Source.Size
	addrs := make([]memsys.Addr, t.n)
	for i := int64(0); i < t.n; i++ {
		a, err := alloc.Alloc(size)
		if err != nil {
			return memsys.NilAddr, fmt.Errorf("split: Reassemble: element %d: %w", i, err)
		}
		addrs[i] = a
	}
	kidIsSlot := make(map[int]bool, len(t.kidSlots))
	for _, slot := range t.kidSlots {
		kidIsSlot[slot] = true
	}
	for i := int64(0); i < t.n; i++ {
		dst := addrs[i]
		t.m.Arena.Memset(dst, 0, size)
		for fi, f := range t.part.Hot {
			if kidIsSlot[fi] {
				kid := t.m.Arena.Load32(t.hot[fi].addr(i))
				pa := memsys.NilAddr
				if kid != nilIndex {
					pa = addrs[kid]
				}
				t.m.Arena.StoreAddr(dst.Add(f.Offset), pa)
				continue
			}
			if err := t.m.Arena.Memcpy(dst.Add(f.Offset), t.hot[fi].addr(i), f.Size); err != nil {
				return memsys.NilAddr, fmt.Errorf("split: Reassemble: element %d: %w", i, err)
			}
		}
		for ci, f := range t.part.Cold {
			if err := t.m.Arena.Memcpy(dst.Add(f.Offset), t.ColdAddr(ci, i), f.Size); err != nil {
				return memsys.NilAddr, fmt.Errorf("split: Reassemble: element %d: %w", i, err)
			}
		}
	}
	return addrs[0], nil
}
