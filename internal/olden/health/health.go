// Package health reproduces the Olden health benchmark (Table 2): a
// discrete-event simulation of the Columbian health-care system. A
// 4-ary tree of villages each runs a hospital with three
// doubly-linked patient lists (waiting, assess, inside); patients are
// generated at leaf villages, work through the lists, and are
// sometimes referred up to the parent village.
//
// The benchmark's primary structure is exactly the struct List of the
// paper's Figure 4, and adding to a list walks to the tail — so the
// hot loop is a pointer chase over list cells that are repeatedly
// allocated and freed. ccmalloc co-locates each new cell with its
// predecessor (the paper's addList example); the ccmorph variant
// periodically reorganizes the lists instead (§4.4).
package health

import (
	"math/rand"

	"ccl/internal/ccmorph"
	"ccl/internal/heap"
	"ccl/internal/machine"
	"ccl/internal/memsys"
	"ccl/internal/olden"
)

// List cell layout — the paper's struct List {forward, back, patient}
// with 4-byte pointers.
const (
	cellForward = 0
	cellBack    = 4
	cellPatient = 8
	// CellSize is sizeof(struct List).
	CellSize = 12
)

// Patient record layout.
const (
	patID   = 0 // uint32
	patTime = 4 // uint32 remaining time in current stage
	patHops = 8 // uint32 villages visited
	// PatientSize is sizeof(struct Patient). Being equal to CellSize
	// also lets ccmorph treat patients as leaf elements of the lists.
	PatientSize = 12
)

// Village record layout: 4 children, parent, 3 list heads, id, leaf,
// and the village's most recently admitted patient (the co-location
// hint for the next patient record).
const (
	vilKids    = 0  // [4]Addr
	vilParent  = 16 // Addr
	vilWaiting = 20 // Addr (list head)
	vilAssess  = 24
	vilInside  = 28
	vilID      = 32 // uint32
	vilLeaf    = 36 // uint32
	vilLastPat = 40 // Addr
	// VillageSize is sizeof(struct Village).
	VillageSize = 44
)

// Simulation tuning (chosen so steady-state lists hold tens of
// cells, like the original's default parameters).
const (
	assessTime   = 5
	insideTime   = 25
	referralPct  = 30 // % of assessed patients sent to the parent
	arrivalPct   = 50 // % chance a leaf spawns a patient each step
	admitPerStep = 1  // waiting -> assess capacity
	// VisitCost is busy work per list-cell visit.
	VisitCost = 6
	// UpdateCost is busy work per patient state change.
	UpdateCost = 8
)

// Config sizes the benchmark.
type Config struct {
	// Levels is the village-tree depth; the paper's input is
	// "max. level = 3". Villages = (4^Levels - 1) / 3.
	Levels int
	// Steps is the simulated time (paper: 3000).
	Steps int
	// MorphInterval is how often (in steps) the ccmorph variant
	// reorganizes the lists; the paper made "no attempt ... to
	// determine the optimal interval".
	MorphInterval int
	// Seed drives patient arrivals and referrals.
	Seed int64
}

// DefaultConfig returns the scaled-down workload.
func DefaultConfig() Config { return Config{Levels: 4, Steps: 150, MorphInterval: 15, Seed: 1} }

// PaperConfig returns the paper-scale workload (level 3, 3000 steps;
// note the paper's "level 3" counts from 0, giving 4 levels).
func PaperConfig() Config { return Config{Levels: 4, Steps: 3000, MorphInterval: 100, Seed: 1} }

// Villages returns the village count for the config.
func (c Config) Villages() int64 { return (pow4(c.Levels) - 1) / 3 }

func pow4(n int) int64 {
	r := int64(1)
	for i := 0; i < n; i++ {
		r *= 4
	}
	return r
}

// sim is the running benchmark.
type sim struct {
	env      olden.Env
	m        *machine.Machine
	rng      *rand.Rand
	villages []memsys.Addr // post-order, leaves first
	// morphOwned tracks cells and patients placed by ccmorph (not
	// allocator property, so they must not be returned to the
	// allocator).
	morphOwned map[memsys.Addr]bool
	// patients is the live patient-record set; the ccmorph layout
	// uses it to tell leaf (patient) elements from list cells.
	patients   map[memsys.Addr]bool
	morphBytes int64
	// morphSkipped counts lists left in their old layout because a
	// periodic Reorganize failed (degraded, not fatal).
	morphSkipped int64
	nextPatID    uint32
	treated      uint64
	checksum     uint64
}

// Run executes the simulation and reports the result. The checksum
// accumulates the id and hop count of every treated patient and must
// match across variants.
func Run(env olden.Env, cfg Config) olden.Result {
	if cfg.Levels < 1 {
		panic("health: Levels must be at least 1")
	}
	s := &sim{
		env:        env,
		m:          env.M,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		morphOwned: map[memsys.Addr]bool{},
		patients:   map[memsys.Addr]bool{},
	}
	root := s.buildVillages(cfg.Levels, memsys.NilAddr)
	_ = root

	for step := 0; step < cfg.Steps; step++ {
		if frac, ok := env.Variant.MorphColorFrac(); ok &&
			cfg.MorphInterval > 0 && step > 0 && step%cfg.MorphInterval == 0 {
			s.morphAllLists(frac)
		}
		s.step()
	}

	return olden.Result{
		Benchmark: "health",
		Variant:   env.Variant,
		Stats:     s.m.Stats(),
		HeapBytes: env.Alloc.HeapBytes() + s.morphBytes,
		Check:     s.checksum + s.treated<<32,
	}
}

// buildVillages allocates the village tree, children after parents,
// and records post-order traversal order.
func (s *sim) buildVillages(level int, parent memsys.Addr) memsys.Addr {
	v := heap.MustAllocHint(s.env.Alloc, VillageSize, s.env.Variant.Hint(parent))
	m := s.m
	for i := 0; i < 4; i++ {
		m.StoreAddr(v.Add(vilKids+int64(i)*4), memsys.NilAddr)
	}
	m.StoreAddr(v.Add(vilParent), parent)
	m.StoreAddr(v.Add(vilWaiting), memsys.NilAddr)
	m.StoreAddr(v.Add(vilAssess), memsys.NilAddr)
	m.StoreAddr(v.Add(vilInside), memsys.NilAddr)
	m.StoreAddr(v.Add(vilLastPat), memsys.NilAddr)
	m.Store32(v.Add(vilID), uint32(len(s.villages)))
	leaf := uint32(0)
	if level == 1 {
		leaf = 1
	}
	m.Store32(v.Add(vilLeaf), leaf)
	if level > 1 {
		for i := 0; i < 4; i++ {
			kid := s.buildVillages(level-1, v)
			m.StoreAddr(v.Add(vilKids+int64(i)*4), kid)
		}
	}
	s.villages = append(s.villages, v) // post-order: kids first
	return v
}

// addList appends a patient to the list at head-slot listOff of
// village v, walking to the tail exactly like the paper's Figure 4
// and hinting the new cell with its predecessor.
func (s *sim) addList(v memsys.Addr, listOff int64, patient memsys.Addr) {
	m := s.m
	var b memsys.Addr
	list := m.LoadAddr(v.Add(listOff))
	for !list.IsNil() {
		s.m.Tick(VisitCost)
		b = list
		list = m.LoadAddr(list.Add(cellForward))
	}
	hint := b
	if hint.IsNil() {
		// First cell of a list: the village record, which is read
		// immediately before the head pointer on every walk, is the
		// natural companion.
		hint = v
	}
	cell := heap.MustAllocHint(s.env.Alloc, CellSize, s.env.Variant.Hint(hint))
	m.StoreAddr(cell.Add(cellPatient), patient)
	m.StoreAddr(cell.Add(cellBack), b)
	m.StoreAddr(cell.Add(cellForward), memsys.NilAddr)
	if b.IsNil() {
		m.StoreAddr(v.Add(listOff), cell)
	} else {
		m.StoreAddr(b.Add(cellForward), cell)
	}
}

// removeCell unlinks cell from the list at v's listOff slot and
// returns (frees) it.
func (s *sim) removeCell(v memsys.Addr, listOff int64, cell memsys.Addr) {
	m := s.m
	back := m.LoadAddr(cell.Add(cellBack))
	fwd := m.LoadAddr(cell.Add(cellForward))
	if back.IsNil() {
		m.StoreAddr(v.Add(listOff), fwd)
	} else {
		m.StoreAddr(back.Add(cellForward), fwd)
	}
	if !fwd.IsNil() {
		m.StoreAddr(fwd.Add(cellBack), back)
	}
	s.freeCell(cell)
}

// freeCell returns a cell to the allocator unless ccmorph owns it.
func (s *sim) freeCell(cell memsys.Addr) {
	delete(s.patients, cell) // no-op for actual cells
	if s.morphOwned[cell] {
		delete(s.morphOwned, cell)
		return
	}
	s.env.Alloc.Free(cell)
}

// freePatient releases a discharged patient record. The villages'
// last-patient hints may dangle afterwards; a dangling hint is safe
// (ccmalloc treats unknown addresses as no hint) but we scrub the
// owning village lazily instead of chasing it here.
func (s *sim) freePatient(p memsys.Addr) {
	delete(s.patients, p)
	if s.morphOwned[p] {
		delete(s.morphOwned, p)
		return
	}
	s.env.Alloc.Free(p)
}

// step advances the simulation one time unit over every village.
func (s *sim) step() {
	m := s.m
	sw := s.env.Variant.SW()
	for _, v := range s.villages {
		// Patients inside the hospital heal and leave.
		cell := m.LoadAddr(v.Add(vilInside))
		for !cell.IsNil() {
			m.Tick(VisitCost)
			next := m.LoadAddr(cell.Add(cellForward))
			if sw {
				m.Prefetch(next)
			}
			p := m.LoadAddr(cell.Add(cellPatient))
			t := m.Load32(p.Add(patTime))
			if t <= 1 {
				m.Tick(UpdateCost)
				s.treated++
				s.checksum += uint64(m.Load32(p.Add(patID))) + uint64(m.Load32(p.Add(patHops)))<<16
				s.removeCell(v, vilInside, cell)
				s.freePatient(p)
			} else {
				m.Store32(p.Add(patTime), t-1)
			}
			cell = next
		}

		// Assessment finishes: refer up or admit.
		cell = m.LoadAddr(v.Add(vilAssess))
		for !cell.IsNil() {
			m.Tick(VisitCost)
			next := m.LoadAddr(cell.Add(cellForward))
			if sw {
				m.Prefetch(next)
			}
			p := m.LoadAddr(cell.Add(cellPatient))
			t := m.Load32(p.Add(patTime))
			if t <= 1 {
				m.Tick(UpdateCost)
				parent := m.LoadAddr(v.Add(vilParent))
				if !parent.IsNil() && s.rng.Intn(100) < referralPct {
					m.Store32(p.Add(patHops), m.Load32(p.Add(patHops))+1)
					m.Store32(p.Add(patTime), assessTime)
					s.removeCell(v, vilAssess, cell)
					s.addList(parent, vilWaiting, p)
				} else {
					m.Store32(p.Add(patTime), insideTime)
					s.removeCell(v, vilAssess, cell)
					s.addList(v, vilInside, p)
				}
			} else {
				m.Store32(p.Add(patTime), t-1)
			}
			cell = next
		}

		// Admit from the waiting list.
		for i := 0; i < admitPerStep; i++ {
			head := m.LoadAddr(v.Add(vilWaiting))
			if head.IsNil() {
				break
			}
			m.Tick(UpdateCost)
			p := m.LoadAddr(head.Add(cellPatient))
			m.Store32(p.Add(patTime), assessTime)
			s.removeCell(v, vilWaiting, head)
			s.addList(v, vilAssess, p)
		}

		// Leaves spawn new patients. Each is hinted to the village's
		// previous patient: patients of one village march through its
		// lists in arrival order, so consecutive arrivals are accessed
		// together on every walk.
		if m.Load32(v.Add(vilLeaf)) == 1 && s.rng.Intn(100) < arrivalPct {
			s.nextPatID++
			hint := m.LoadAddr(v.Add(vilLastPat))
			if hint.IsNil() {
				hint = v
			}
			p := heap.MustAllocHint(s.env.Alloc, PatientSize, s.env.Variant.Hint(hint))
			m.StoreAddr(v.Add(vilLastPat), p)
			s.patients[p] = true
			m.Store32(p.Add(patID), s.nextPatID)
			m.Store32(p.Add(patTime), 0)
			m.Store32(p.Add(patHops), 0)
			s.addList(v, vilWaiting, p)
		}
	}
}

// cellLayout is the ccmorph template for a hospital list: each cell
// has two "children" — the next cell and its patient record — so a
// reorganized list interleaves cells with the patients they point to,
// which is exactly the access order of every walk. Patients are
// leaves; the sim's live-patient set tells the two kinds apart (both
// are 12 bytes). Back pointers are rewired by the caller after the
// copy, so HasParent stays false.
func (s *sim) cellLayout() ccmorph.Layout {
	return ccmorph.Layout{
		NodeSize: CellSize,
		MaxKids:  2,
		Kid: func(m *machine.Machine, n memsys.Addr, i int) memsys.Addr {
			if s.patients[n] {
				return memsys.NilAddr // patients are leaves
			}
			if i == 1 {
				return m.LoadAddr(n.Add(cellForward))
			}
			return m.LoadAddr(n.Add(cellPatient))
		},
		SetKid: func(m *machine.Machine, n memsys.Addr, i int, kid memsys.Addr) {
			if i == 1 {
				m.StoreAddr(n.Add(cellForward), kid)
				return
			}
			m.StoreAddr(n.Add(cellPatient), kid)
		},
	}
}

// morphAllLists reorganizes every hospital list with ccmorph, as the
// paper's cache-conscious health version does periodically. All lists
// in one round share a single placement context: with coloring, the
// hot cache region is claimed once rather than once per list, so the
// lists do not conflict with each other. After each copy the back
// pointers are rewired and the relocated cells and patients are
// recorded as ccmorph property.
func (s *sim) morphAllLists(colorFrac float64) {
	m := s.m
	placer, err := ccmorph.NewPlacer(m.Arena, olden.MorphConfig(m, colorFrac))
	if err != nil {
		// Geometry comes from the machine's own last-level cache, so a
		// failure here is a harness bug: fail fast (DESIGN.md §7).
		panic(err)
	}
	lay := s.cellLayout()
	for _, v := range s.villages {
		for _, off := range []int64{vilWaiting, vilAssess, vilInside} {
			head := m.LoadAddr(v.Add(off))
			if head.IsNil() {
				continue
			}
			newHead, _, merr := ccmorph.ReorganizeWith(m, head, lay, placer, s.freeCell)
			if merr != nil {
				// Degrade: Reorganize is copy-then-commit, so the
				// original list is intact — keep walking it in its old
				// layout this round instead of dying mid-simulation.
				s.morphSkipped++
				continue
			}
			m.StoreAddr(v.Add(off), newHead)
			prev := memsys.NilAddr
			for c := newHead; !c.IsNil(); c = m.Arena.LoadAddr(c.Add(cellForward)) {
				m.StoreAddr(c.Add(cellBack), prev)
				s.morphOwned[c] = true
				pat := m.Arena.LoadAddr(c.Add(cellPatient))
				s.morphOwned[pat] = true
				s.patients[pat] = true
				prev = c
			}
		}
	}
	s.morphBytes += placer.Claimed()
}
