// Package ccl is the public API of the cache-conscious structure
// layout library — a reproduction of Chilimbi, Hill & Larus,
// "Cache-Conscious Structure Layout" (PLDI 1999).
//
// The library provides:
//
//   - a simulated machine (byte-addressable address space plus a
//     parameterized multi-level cache with TLB and cycle accounting)
//     on which placement experiments are exact and reproducible;
//   - a conventional boundary-tag allocator (the malloc baseline);
//   - CCMalloc, the paper's cache-conscious heap allocator with the
//     closest, first-fit, and new-block co-location strategies;
//   - CCMorph, the paper's transparent tree reorganizer (subtree
//     clustering and cache coloring);
//   - the §5 analytic framework for predicting the benefit of a
//     cache-conscious layout a priori;
//   - the paper's evaluation suite: the tree microbenchmark, four
//     Olden benchmarks, and the RADIANCE/VIS macrobenchmark
//     substitutes (see DESIGN.md and EXPERIMENTS.md).
//
// Quickstart:
//
//	m := ccl.NewPaperMachine()
//	alloc, err := ccl.NewCCMalloc(m, ccl.NewBlock)
//	head, err := alloc.AllocHint(16, seed) // near an existing element
//	cell, err := alloc.AllocHint(16, head) // co-located with head
//
// Failures carry typed sentinels (ErrOutOfMemory, ErrPlacementFailed,
// ...) matchable with errors.Is; see examples/ for complete programs.
package ccl

import (
	"io"

	"ccl/internal/apps/serving"
	"ccl/internal/cache"
	"ccl/internal/cclerr"
	"ccl/internal/ccmalloc"
	"ccl/internal/ccmorph"
	"ccl/internal/heap"
	"ccl/internal/layout"
	"ccl/internal/machine"
	"ccl/internal/memsys"
	"ccl/internal/model"
	"ccl/internal/profile"
	"ccl/internal/sim"
	"ccl/internal/split"
	"ccl/internal/telemetry"
	"ccl/internal/trees"
)

// Core simulated-machine types.
type (
	// Machine is a simulated uniprocessor memory system: an address
	// space plus a cache hierarchy with cycle accounting.
	Machine = machine.Machine
	// Addr is a simulated address; the zero value is nil.
	Addr = memsys.Addr
	// Arena is the simulated address space.
	Arena = memsys.Arena
	// CacheConfig parameterizes the simulated hierarchy.
	CacheConfig = cache.Config
	// CacheStats carries cycle and miss counters.
	CacheStats = cache.Stats
	// Geometry identifies the cache level placement targets.
	Geometry = layout.Geometry
)

// NilAddr is the simulated null pointer.
const NilAddr = memsys.NilAddr

// PtrSize is the simulated pointer width in bytes (32-bit, as on the
// paper's UltraSPARC).
const PtrSize = memsys.PtrSize

// NewMachine builds a machine with an explicit cache configuration.
func NewMachine(cfg CacheConfig) *Machine { return machine.New(cfg) }

// NewPaperMachine builds the paper's §4.1 measurement machine: 16 KB
// direct-mapped L1, 1 MB direct-mapped L2, 64-entry TLB.
func NewPaperMachine() *Machine { return machine.NewPaper() }

// NewScaledMachine builds the §4.1 machine with capacities divided by
// factor, preserving block sizes so placement behaves identically at
// smaller scale.
func NewScaledMachine(factor int64) *Machine { return machine.NewScaled(factor) }

// PaperCache returns the §4.1 hierarchy configuration.
func PaperCache() CacheConfig { return cache.PaperHierarchy() }

// RSIMCache returns the Table 1 simulation hierarchy.
func RSIMCache() CacheConfig { return cache.RSIMHierarchy() }

// Sim is a per-run simulation context: machines built through one
// share its guard (the fault seam) and memory budget, and two
// Sims share no mutable state at all — the unit of isolation for
// running simulations concurrently (one goroutine per Sim; see
// DESIGN.md §8).
type Sim = sim.Sim

// NewSim returns a fresh run context.
func NewSim() *Sim { return sim.New() }

// Allocators.
type (
	// Allocator is the interface shared by the baseline allocator
	// and CCMalloc; co-location hints are no-ops for the baseline.
	Allocator = heap.Allocator
	// Malloc is the conventional boundary-tag allocator.
	Malloc = heap.Malloc
	// CCMalloc is the paper's cache-conscious allocator (§3.2).
	CCMalloc = ccmalloc.Allocator
	// Strategy selects CCMalloc's block-selection policy.
	Strategy = ccmalloc.Strategy
)

// CCMalloc strategies (§3.2.1).
const (
	// Closest places spills as near the hint's block as possible.
	Closest = ccmalloc.Closest
	// FirstFit places spills in the first block with room.
	FirstFit = ccmalloc.FirstFit
	// NewBlock places spills in unused blocks, reserving their
	// remainder for future hinted allocations.
	NewBlock = ccmalloc.NewBlock
)

// NewMalloc returns a conventional allocator over the machine's
// address space.
func NewMalloc(m *Machine) *Malloc { return heap.New(m.Arena) }

// NewCCMalloc returns a cache-conscious allocator targeting the
// machine's last-level cache, charging its bookkeeping cost to the
// machine's clock. It fails with ErrBadGeometry when the cache's
// placement geometry is unusable and ErrInvalidArg for an unknown
// strategy.
func NewCCMalloc(m *Machine, s Strategy) (*CCMalloc, error) {
	return ccmalloc.New(m.Arena, layout.FromLevel(m.Cache.LastLevel()), s, m.Cache)
}

// CCMorph (§3.1).
type (
	// StructureLayout is the template describing an element type to
	// CCMorph: its size, arity, and pointer accessors.
	StructureLayout = ccmorph.Layout
	// MorphConfig carries the cache parameters of a reorganization.
	MorphConfig = ccmorph.Config
	// MorphStats reports what a reorganization did.
	MorphStats = ccmorph.Stats
	// Placer is a shareable placement context for morphing several
	// structures against one cache partition.
	Placer = ccmorph.Placer
	// MorphStrategy selects CCMorph's placement order: the paper's
	// subtree clustering or the cache-oblivious vEB order.
	MorphStrategy = ccmorph.Strategy
)

// CCMorph placement strategies.
const (
	// SubtreeCluster packs cache-block-sized subtrees (§3.1, the
	// paper's strategy and the default).
	SubtreeCluster = ccmorph.SubtreeCluster
	// VEB places nodes in the van Emde Boas recursive order: height-
	// halving recursion keeps every descent's bottom levels on one
	// page, trading a little coloring coverage for TLB locality on
	// trees beyond TLB reach.
	VEB = ccmorph.VEB
)

// Reorganize transparently rewrites the tree rooted at root into a
// cache-conscious layout (subtree clustering, plus coloring when
// cfg.ColorFrac > 0) and returns the new root. Reorganization is
// copy-then-commit: on any error (ErrNotTree for non-tree-shaped
// inputs, ErrPlacementFailed or ErrOutOfMemory for placement
// failures) the original root is returned and the structure is
// untouched and still traversable.
func Reorganize(m *Machine, root Addr, lay StructureLayout, cfg MorphConfig,
	freeOld func(Addr)) (Addr, MorphStats, error) {
	return ccmorph.Reorganize(m, root, lay, cfg, freeOld)
}

// NewPlacer builds a shareable placement context over the machine's
// arena. It fails with ErrBadGeometry when cfg's geometry is unusable.
func NewPlacer(m *Machine, cfg MorphConfig) (*Placer, error) {
	return ccmorph.NewPlacer(m.Arena, cfg)
}

// LastLevelGeometry returns the placement geometry of the machine's
// last-level cache — the level ccmalloc and ccmorph target.
func LastLevelGeometry(m *Machine) Geometry {
	return layout.FromLevel(m.Cache.LastLevel())
}

// Analytic framework (§5).
type (
	// Locality is a structure's (D, K, Rs) locality description.
	Locality = model.Locality
	// CTreeModel predicts steady-state C-tree performance (§5.3).
	CTreeModel = model.CTree
	// CacheParams are the §5.1 timing parameters.
	CacheParams = model.CacheParams
)

// PaperParams returns the §4.1 machine's analytic timing parameters.
func PaperParams() CacheParams { return model.PaperParams() }

// Speedup evaluates the Figure 8 speedup equation.
func Speedup(p CacheParams, naiveL1, naiveL2, ccL1, ccL2 float64) float64 {
	return model.Speedup(p, naiveL1, naiveL2, ccL1, ccL2)
}

// Tree structures (§4.2's microbenchmark subjects).
type (
	// BST is a balanced binary search tree over the simulated heap.
	BST = trees.BST
	// BTree is a block-node B-tree with colored upper levels.
	BTree = trees.BTree
	// BuildOrder selects a BST's allocation order.
	BuildOrder = trees.Order
)

// BST allocation orders.
const (
	// RandomOrder scatters nodes (the naive baseline).
	RandomOrder = trees.RandomOrder
	// DepthFirstOrder allocates in preorder.
	DepthFirstOrder = trees.DepthFirstOrder
	// LevelOrder allocates level by level.
	LevelOrder = trees.LevelOrder
)

// BuildBST builds a balanced BST of keys 1..n with the given
// allocation order. It fails with ErrInvalidArg for a non-positive n
// or unknown order; allocation failures propagate.
func BuildBST(m *Machine, alloc Allocator, n int64, order BuildOrder, seed int64) (*BST, error) {
	return trees.Build(m, alloc, n, order, seed)
}

// NewBTree returns an empty B-tree whose nodes are single cache
// blocks; colorFrac > 0 reserves that cache fraction for the
// root-most nodes. It fails with ErrBadGeometry when a block cannot
// hold even one key.
func NewBTree(m *Machine, colorFrac float64) (*BTree, error) {
	return trees.NewBTree(m, colorFrac)
}

// BSTLayout returns the CCMorph template for BST nodes, for use with
// Reorganize.
func BSTLayout() StructureLayout { return trees.Layout() }

// Hot/cold structure splitting (§3.2's second technique): partition a
// structure's fields by profiled temperature, pack the hot fields into
// index-linked SoA arrays placed in the cache's hot partition, and
// bank the cold fields in an overflow record.
type (
	// SplitPartition is a hot/cold assignment of one structure's
	// fields, typically derived from a Profile via PlanBSTSplit.
	SplitPartition = split.Partition
	// SplitConfig carries the placement geometry and coloring
	// fraction of a split.
	SplitConfig = split.Config
	// SplitStats reports what a split did.
	SplitStats = split.Stats
	// SplitTree is the split form of a pointer structure: hot SoA
	// arrays plus a cold overflow bank, linked by element index.
	SplitTree = split.Tree
	// SplitBST is a BST in split form; Search runs on the hot arrays
	// and never touches a cold byte.
	SplitBST = trees.SplitBST
)

// PlanBSTSplit derives a hot/cold partition for BST nodes from a
// profile: fields the profiler ranked hot (plus the child pointers,
// which a split tree always needs) go hot, the rest cold. It fails
// with ErrInvalidArg when the profile has no structure under label.
// Apply the plan with (*BST).Split; undo with SplitTree.Reassemble.
func PlanBSTSplit(rep Profile, label string) (SplitPartition, error) {
	return trees.PlanBSTSplit(rep, label)
}

// Error taxonomy. Every library failure wraps exactly one of these
// sentinels (match with errors.Is); injected faults additionally wrap
// ErrFaultInjected alongside the operational sentinel they simulate.
var (
	// ErrOutOfMemory: the simulated address space or a budget is
	// exhausted.
	ErrOutOfMemory = cclerr.ErrOutOfMemory
	// ErrBadGeometry: a cache geometry cannot support placement.
	ErrBadGeometry = cclerr.ErrBadGeometry
	// ErrInvalidArg: a caller-supplied argument is out of range.
	ErrInvalidArg = cclerr.ErrInvalidArg
	// ErrNotTree: Reorganize's input is not tree-shaped (shared or
	// cyclic nodes, or pointers outside the structure).
	ErrNotTree = cclerr.ErrNotTree
	// ErrPlacementFailed: a cache-conscious placement could not be
	// made (the caller may fall back to conventional placement).
	ErrPlacementFailed = cclerr.ErrPlacementFailed
	// ErrCorruptTrace: a trace record failed to decode.
	ErrCorruptTrace = cclerr.ErrCorruptTrace
	// ErrFaultInjected: the failure came from the fault injector.
	ErrFaultInjected = cclerr.ErrFaultInjected
	// ErrOverloaded: admission control rejected the work (rate limit
	// or full queue); back off and retry. The server maps it to HTTP
	// 429/503 (see DESIGN.md §12).
	ErrOverloaded = cclerr.ErrOverloaded
	// ErrDeadlineExceeded: a deadline expired before the work
	// finished; partial results may still have been flushed.
	ErrDeadlineExceeded = cclerr.ErrDeadlineExceeded
	// ErrBudgetExceeded: a simulated-memory budget could not cover an
	// arena growth. Unlike ErrOutOfMemory (address-space exhaustion),
	// this is a per-request quota the submitter chose.
	ErrBudgetExceeded = cclerr.ErrBudgetExceeded
)

// ErrorClass maps an error to its machine-readable taxonomy label
// ("out-of-memory", "placement-failed", ...), or "" for errors from
// outside the taxonomy. Reports and logs use it to bucket failures.
func ErrorClass(err error) string { return cclerr.Class(err) }

// Telemetry (miss classification, per-structure attribution, set
// heatmaps).
type (
	// Collector observes a cache hierarchy and classifies every
	// demand miss compulsory/capacity/conflict (the 3C model),
	// attributes misses to registered address regions, and keeps
	// per-set heatmap counters for the last level.
	Collector = telemetry.Collector
	// TelemetryReport is a Collector's JSON-serializable summary.
	TelemetryReport = telemetry.Report
)

// AttachTelemetry installs a fresh Collector as the machine's cache
// observer and returns it. Detach with m.Cache.SetObserver(nil); with
// no observer installed the simulator's outputs are unchanged.
func AttachTelemetry(m *Machine) *Collector { return telemetry.Attach(m.Cache) }

// Profiling (field-level miss attribution, phase time series, pprof
// export; see DESIGN.md §10).
type (
	// Profiler samples cache misses down to structure.field via
	// registered field maps and keeps a windowed epoch series of
	// miss rates. It wraps its own Collector, so attaching it gives
	// the full telemetry view too.
	Profiler = profile.Profiler
	// ProfileConfig tunes the sampling period and epoch windowing.
	ProfileConfig = profile.Config
	// Profile is a Profiler's summary in the ccl-profile/v1 schema,
	// with ASCII rendering and pprof (profile.proto) export.
	Profile = profile.Report
	// RegionMap labels address ranges for attribution; structures
	// register their elements and field maps here.
	RegionMap = telemetry.RegionMap
	// FieldMap describes one structure's member layout — the key
	// that turns per-region miss counts into per-field ones.
	FieldMap = layout.FieldMap
	// Field is one named member of a FieldMap.
	Field = layout.Field
)

// AttachProfiler installs a fresh Profiler as the machine's cache
// observer and returns it. Detach with m.Cache.SetObserver(nil); a
// detached (or never-attached) machine pays nothing.
func AttachProfiler(m *Machine, cfg ProfileConfig) *Profiler {
	return profile.Attach(m.Cache, cfg)
}

// NewFieldMap validates a structure's member layout for field-level
// attribution; it fails with ErrInvalidArg on overlapping or
// out-of-bounds fields.
func NewFieldMap(structName string, size int64, fields ...Field) (FieldMap, error) {
	return layout.NewFieldMap(structName, size, fields...)
}

// WriteProfile writes a profile in the ccl-profile/v1 JSON schema —
// the same format `ccbench -profile` exports. The pprof form is
// rep.WritePprof.
func WriteProfile(w io.Writer, rep Profile) error { return profile.WriteJSON(w, rep) }

// Serving workloads (the Zipfian KV store, intrusive LRU cache, and
// cache-line-aligned d-ary priority queue of internal/apps/serving;
// see DESIGN.md §14). These are the library's serving-shaped
// structures: each races layout/placement variants over the simulated
// heap under a seeded Zipfian op stream, with per-structure telemetry
// attribution. The `ccbench serving` experiment tabulates the races.
type (
	// Zipf is a deterministic seeded Zipfian key generator (inverse
	// CDF, so exponents below 1 — the serving-canonical s=0.99 —
	// work, unlike math/rand's rejection sampler).
	Zipf = serving.Zipf
	// KV is an open-addressing hash-table KV store with tunable slot
	// layout (AoS vs hot/cold key-metadata split) and placement
	// (malloc, ccmalloc, colored).
	KV = serving.KV
	// KVConfig selects the store's layout, placement, and sizing.
	KVConfig = serving.KVConfig
	// LRU is an intrusive least-recently-used cache with co-located
	// or split list links.
	LRU = serving.LRU
	// LRUConfig selects the cache's layout, placement, and sizing.
	LRUConfig = serving.LRUConfig
	// PQueue is an implicit d-ary min-heap whose sibling groups are
	// aligned to cache lines (a 4-ary group is exactly one 64-byte
	// line).
	PQueue = serving.PQueue
	// PQConfig selects the heap's arity and capacity.
	PQConfig = serving.PQConfig
)

// KV layout and placement variants.
const (
	KVAoS      = serving.KVAoS
	KVSplit    = serving.KVSplit
	KVMalloc   = serving.KVMalloc
	KVCCMalloc = serving.KVCCMalloc
	KVColored  = serving.KVColored
)

// LRU placement variants.
const (
	LRUMalloc   = serving.LRUMalloc
	LRUCCMalloc = serving.LRUCCMalloc
)

// NewZipf returns a generator over keys [1, n] with exponent s
// (s=0 uniform; higher skews harder). It fails with ErrInvalidArg
// outside the supported parameter ranges.
func NewZipf(seed int64, s float64, n int64) (*Zipf, error) {
	return serving.NewZipf(seed, s, n)
}

// NewKV builds a KV store over the machine's heap. Configuration
// errors are typed ErrInvalidArg; a colored store whose place guard
// vetoes fails with ErrPlacementFailed.
func NewKV(m *Machine, cfg KVConfig) (*KV, error) { return serving.NewKV(m, cfg) }

// NewLRU builds an LRU cache over the machine's heap.
func NewLRU(m *Machine, cfg LRUConfig) (*LRU, error) { return serving.NewLRU(m, cfg) }

// NewPQueue builds a priority queue over the machine's heap.
func NewPQueue(m *Machine, cfg PQConfig) (*PQueue, error) { return serving.NewPQueue(m, cfg) }

// Workload drivers: seeded Zipfian op streams over the serving
// structures. Deterministic — same seed, same structure state, same
// stats.
type (
	// KVWorkload is a Zipfian get/put stream over a KV store.
	KVWorkload = serving.KVWorkload
	// LRUWorkload is a Zipfian cache-aside stream over an LRU cache.
	LRUWorkload = serving.LRUWorkload
	// PQWorkload is the hold model over a priority queue.
	PQWorkload = serving.PQWorkload
	// WorkloadStats summarizes one driven op stream; Checksum folds
	// every returned value, so two runs agree iff the structures
	// behaved identically.
	WorkloadStats = serving.WorkloadStats
)

// WarmKV populates kv with every resident key of the [1, keys] space
// (keys divisible by 3 stay absent, so a third of Zipfian lookups are
// negative).
func WarmKV(kv *KV, keys int64) error { return serving.WarmKV(kv, keys) }

// RunKV drives kv with w's op stream.
func RunKV(kv *KV, w KVWorkload) (WorkloadStats, error) { return serving.RunKV(kv, w) }

// RunLRU drives c with w's op stream.
func RunLRU(c *LRU, w LRUWorkload) (WorkloadStats, error) { return serving.RunLRU(c, w) }

// FillPQ pushes w.Fill elements with seeded pseudo-random priorities.
func FillPQ(q *PQueue, w PQWorkload) error { return serving.FillPQ(q, w) }

// RunPQ drives q with w's hold-model stream (fill first).
func RunPQ(q *PQueue, w PQWorkload) (WorkloadStats, error) { return serving.RunPQ(q, w) }
