package serving

import (
	"fmt"

	"ccl/internal/cclerr"
	"ccl/internal/ccmalloc"
	"ccl/internal/heap"
	"ccl/internal/layout"
	"ccl/internal/machine"
	"ccl/internal/memsys"
	"ccl/internal/telemetry"
)

// KVLayout selects how a slot's probe-hot header (key + state) and
// its payload are laid out relative to each other.
type KVLayout int

const (
	// KVAoS co-locates header and payload in one array-of-structures
	// slot: a positive lookup touches one line, but every probe step
	// drags the full payload-width slot through the cache.
	KVAoS KVLayout = iota
	// KVSplit segregates headers into dense block-sized groups with
	// payloads in a parallel cold array, the internal/split
	// convention: probes touch 8 headers per line instead of 1 slot.
	KVSplit
)

// String names the layout.
func (l KVLayout) String() string {
	switch l {
	case KVAoS:
		return "aos"
	case KVSplit:
		return "split"
	default:
		return fmt.Sprintf("KVLayout(%d)", int(l))
	}
}

// KVPlacement selects the allocator that places the table's bucket
// groups.
type KVPlacement int

const (
	// KVMalloc places groups with the conventional dlmalloc-style
	// allocator: boundary tags dilute the stride, so block-sized
	// groups straddle cache lines.
	KVMalloc KVPlacement = iota
	// KVCCMalloc hint-chains group allocations through ccmalloc so
	// consecutive groups share cache blocks and pages, block-aligned.
	KVCCMalloc
	// KVColored places header groups in the reserved hot stripe of
	// the last-level cache and payload groups in the cold remainder
	// (split layout only), so probe traffic cannot conflict with
	// payload traffic in a direct-mapped cache.
	KVColored
)

// String names the placement.
func (p KVPlacement) String() string {
	switch p {
	case KVMalloc:
		return "malloc"
	case KVCCMalloc:
		return "ccmalloc"
	case KVColored:
		return "colored"
	default:
		return fmt.Sprintf("KVPlacement(%d)", int(p))
	}
}

// Slot geometry. The header is one 64-bit word (key in the low half,
// state in the high half) so a probe step costs a single access; the
// payload is KVValueBytes of response data. An AoS slot is exactly
// one 64-byte line; split payloads are padded to the line so a
// payload read never straddles.
const (
	kvHeaderBytes = 8
	// KVValueBytes is the payload carried per key.
	KVValueBytes = 56
	kvValueWords = KVValueBytes / 8
	kvAoSSlot    = kvHeaderBytes + KVValueBytes

	kvStateEmpty = 0
	kvStateLive  = 1
	kvStateTomb  = 2
)

// KVConfig configures a store.
type KVConfig struct {
	Layout    KVLayout
	Placement KVPlacement
	// Slots is the initial table capacity: a power of two. The table
	// grows by doubling when live+tombstone occupancy crosses 3/4.
	Slots int64
	// ColorFrac is the hot-stripe fraction for KVColored; 0 selects
	// the 0.5 default.
	ColorFrac float64
}

// kvTable is one generation of the table: the directory of group
// addresses plus occupancy counters. Resize builds a complete new
// generation and commits it with a single swap.
type kvTable struct {
	slots, mask int64
	live, tombs int64
	// groups holds the slot groups (AoS) or header groups (split),
	// one block-sized group of groupSlots slots each.
	groups []memsys.Addr
	// cold holds the split layout's payload groups, parallel to
	// groups; nil for AoS.
	cold []memsys.Addr
}

// KVStats summarizes a store.
type KVStats struct {
	Slots, Live, Tombstones int64
	Resizes                 int64
	Probes                  int64 // total header loads across all ops
	HeapBytes               int64 // arena bytes claimed for the table
}

// KV is an open-addressing (linear probing, tombstone deletion)
// hash table over the simulated heap, the serving family's key/value
// store. All runtime accesses go through a machine.Mem.
type KV struct {
	m     machine.Mem
	arena *memsys.Arena
	cfg   KVConfig
	geo   layout.Geometry

	alloc           heap.Allocator // KVMalloc / KVCCMalloc group source
	region          *layout.Region // KVColored group source
	groupSlots      int64          // slots per group
	groupBytes      int64          // header-group byte size
	coldGroupBytes  int64          // payload-group byte size (split)
	tab             kvTable
	resizes, probes int64
}

// NewKV builds an empty store over m's arena. Construction writes are
// uncharged (setup phase); pass the returned store a stream of ops to
// generate measured traffic. Configuration errors are typed
// cclerr.ErrInvalidArg; allocation failures propagate the allocator's
// typed error.
func NewKV(m *machine.Machine, cfg KVConfig) (*KV, error) {
	if cfg.Slots <= 0 || cfg.Slots&(cfg.Slots-1) != 0 {
		return nil, cclerr.Errorf(cclerr.ErrInvalidArg,
			"serving: NewKV: slots %d must be a positive power of two", cfg.Slots)
	}
	if cfg.Placement == KVColored && cfg.Layout != KVSplit {
		return nil, cclerr.Errorf(cclerr.ErrInvalidArg,
			"serving: NewKV: colored placement requires the split layout")
	}
	geo := layout.FromLevel(m.Cache.LastLevel())
	kv := &KV{m: m, arena: m.Arena, cfg: cfg, geo: geo}
	switch cfg.Layout {
	case KVAoS:
		kv.groupSlots = geo.BlockSize / kvAoSSlot
		if kv.groupSlots < 1 {
			kv.groupSlots = 1
		}
		kv.groupBytes = kv.groupSlots * kvAoSSlot
	case KVSplit:
		kv.groupSlots = geo.BlockSize / kvHeaderBytes
		if kv.groupSlots < 1 {
			kv.groupSlots = 1
		}
		kv.groupBytes = kv.groupSlots * kvHeaderBytes
		kv.coldGroupBytes = kv.groupSlots * geo.BlockSize
	default:
		return nil, cclerr.Errorf(cclerr.ErrInvalidArg, "serving: NewKV: unknown layout %d", int(cfg.Layout))
	}
	if cfg.Slots < kv.groupSlots {
		return nil, cclerr.Errorf(cclerr.ErrInvalidArg,
			"serving: NewKV: slots %d smaller than one %d-slot group", cfg.Slots, kv.groupSlots)
	}
	switch cfg.Placement {
	case KVMalloc:
		kv.alloc = heap.New(m.Arena)
	case KVCCMalloc:
		a, err := ccmalloc.New(m.Arena, geo, ccmalloc.Closest, m)
		if err != nil {
			return nil, err
		}
		kv.alloc = a
	case KVColored:
		frac := cfg.ColorFrac
		if frac == 0 {
			frac = 0.5
		}
		r, err := layout.NewRegion(m.Arena, geo, frac)
		if err != nil {
			return nil, err
		}
		kv.region = r
	default:
		return nil, cclerr.Errorf(cclerr.ErrInvalidArg, "serving: NewKV: unknown placement %d", int(cfg.Placement))
	}
	t, err := kv.buildTable(cfg.Slots, machine.Uncharged(m.Arena))
	if err != nil {
		return nil, err
	}
	kv.tab = *t
	return kv, nil
}

// UseMem redirects the store's runtime accesses through w — a
// machine.Recorder capturing the stream for oracle replay, or a test
// double. Construction and allocator metadata are unaffected.
func (kv *KV) UseMem(w machine.Mem) { kv.m = w }

// hash mixes the key; the table index is the low mask bits.
func kvHash(key uint32) int64 {
	h := key * 2654435761
	h ^= h >> 16
	return int64(h)
}

// headerAddr returns the address of slot i's header word in t.
func (kv *KV) headerAddr(t *kvTable, i int64) memsys.Addr {
	g, r := i/kv.groupSlots, i%kv.groupSlots
	if kv.cfg.Layout == KVAoS {
		return t.groups[g].Add(r * kvAoSSlot)
	}
	return t.groups[g].Add(r * kvHeaderBytes)
}

// valueAddr returns the address of slot i's payload in t.
func (kv *KV) valueAddr(t *kvTable, i int64) memsys.Addr {
	g, r := i/kv.groupSlots, i%kv.groupSlots
	if kv.cfg.Layout == KVAoS {
		return t.groups[g].Add(r*kvAoSSlot + kvHeaderBytes)
	}
	return t.cold[g].Add(r * kv.geo.BlockSize)
}

func kvHeader(key uint32, state int64) int64 { return int64(key) | state<<32 }

// allocGroup places one header group: in the hot stripe under
// KVColored — always, however far past the region's hot budget the
// table grows, since every probe reads headers — and hint-chained to
// the previous group under KVCCMalloc. The region consults the
// arena's guard once per group, and a veto fails the allocation with
// cclerr.ErrPlacementFailed; ccmalloc degrades a vetoed hinted
// placement to conventional allocation instead.
func (kv *KV) allocGroup(prev memsys.Addr) (memsys.Addr, error) {
	switch kv.cfg.Placement {
	case KVColored:
		return kv.region.Alloc(kv.groupBytes, true)
	case KVCCMalloc:
		return kv.alloc.AllocHint(kv.groupBytes, prev)
	}
	return kv.alloc.Alloc(kv.groupBytes)
}

// allocColdGroup places one payload group. Payloads are cold data:
// they go through the conventional path (or the cold stripe, vetoable
// like a header group), never hint-chained.
func (kv *KV) allocColdGroup() (memsys.Addr, error) {
	if kv.cfg.Placement == KVColored {
		return kv.region.Alloc(kv.coldGroupBytes, false)
	}
	return kv.alloc.Alloc(kv.coldGroupBytes)
}

// freeGroups releases groups allocated for an uncommitted table
// generation. Region extents are one-way (no free list); an aborted
// colored generation abandons its extents, costing footprint but
// never correctness.
func (kv *KV) freeGroups(groups, cold []memsys.Addr) {
	if kv.alloc == nil {
		return
	}
	for _, g := range groups {
		_ = kv.alloc.Free(g)
	}
	for _, g := range cold {
		_ = kv.alloc.Free(g)
	}
}

// buildTable allocates and zeroes a table generation of the given
// slot count, writing through w (the arena at construction, the
// machine during a charged resize). On failure every group already
// placed is released and the error — always typed — is returned with
// the live table untouched.
func (kv *KV) buildTable(slots int64, w machine.Mem) (*kvTable, error) {
	n := slots / kv.groupSlots
	t := &kvTable{slots: slots, mask: slots - 1}
	t.groups = make([]memsys.Addr, 0, n)
	if kv.cfg.Layout == KVSplit {
		t.cold = make([]memsys.Addr, 0, n)
	}
	prev := memsys.NilAddr
	for g := int64(0); g < n; g++ {
		ga, err := kv.allocGroup(prev)
		if err != nil {
			kv.freeGroups(t.groups, t.cold)
			return nil, fmt.Errorf("serving: kv table of %d slots: %w", slots, err)
		}
		t.groups = append(t.groups, ga)
		prev = ga
		if kv.cfg.Layout == KVSplit {
			ca, err := kv.allocColdGroup()
			if err != nil {
				kv.freeGroups(t.groups, t.cold)
				return nil, fmt.Errorf("serving: kv table of %d slots: %w", slots, err)
			}
			t.cold = append(t.cold, ca)
		}
	}
	for i := int64(0); i < slots; i++ {
		w.StoreInt(kv.headerAddr(t, i), kvHeader(0, kvStateEmpty))
	}
	return t, nil
}

// find probes t for a live slot holding key, charging one header load
// and one compare cycle per step. The table always keeps at least one
// empty slot, so the probe terminates.
func (kv *KV) find(t *kvTable, w machine.Mem, key uint32) (int64, bool) {
	i := kvHash(key) & t.mask
	for {
		w.Tick(1)
		kv.probes++
		h := w.LoadInt(kv.headerAddr(t, i))
		state := h >> 32
		if state == kvStateEmpty {
			return 0, false
		}
		if state == kvStateLive && uint32(h) == key {
			return i, true
		}
		i = (i + 1) & t.mask
	}
}

// kvSalt derives the per-key payload salt; payload words are
// (value, value^salt, value^2*salt, ...) so integrity checks can
// verify a payload against its key without host-side shadow state.
func kvSalt(key uint32) int64 { return int64(uint64(key) * 0x9e3779b97f4a7c15) }

func (kv *KV) writeValue(t *kvTable, w machine.Mem, i int64, key uint32, val int64) {
	base := kv.valueAddr(t, i)
	salt := kvSalt(key)
	for j := int64(0); j < kvValueWords; j++ {
		w.StoreInt(base.Add(j*8), val^(salt*j))
	}
}

// readValue reads the full payload (a response copy) and returns the
// value word.
func (kv *KV) readValue(t *kvTable, w machine.Mem, i int64) int64 {
	base := kv.valueAddr(t, i)
	v := w.LoadInt(base)
	for j := int64(1); j < kvValueWords; j++ {
		_ = w.LoadInt(base.Add(j * 8))
	}
	return v
}

// putInto inserts or overwrites key in t through w. An insert that
// would consume the table's last empty slot fails with
// cclerr.ErrOutOfMemory: the empty slot is what terminates probes.
func (kv *KV) putInto(t *kvTable, w machine.Mem, key uint32, val int64) error {
	i := kvHash(key) & t.mask
	ins := int64(-1)
	for {
		w.Tick(1)
		kv.probes++
		h := w.LoadInt(kv.headerAddr(t, i))
		state := h >> 32
		if state == kvStateEmpty {
			if ins < 0 {
				if t.live+t.tombs+1 >= t.slots {
					return cclerr.Errorf(cclerr.ErrOutOfMemory,
						"serving: kv table full at %d/%d slots", t.live+t.tombs, t.slots)
				}
				ins = i
			}
			break
		}
		if state == kvStateLive && uint32(h) == key {
			kv.writeValue(t, w, i, key, val)
			return nil
		}
		if state == kvStateTomb && ins < 0 {
			ins = i
		}
		i = (i + 1) & t.mask
	}
	h := w.LoadInt(kv.headerAddr(t, ins))
	if h>>32 == kvStateTomb {
		t.tombs--
	}
	w.StoreInt(kv.headerAddr(t, ins), kvHeader(key, kvStateLive))
	kv.writeValue(t, w, ins, key, val)
	t.live++
	return nil
}

// maybeResize grows (or rehashes in place, purging tombstones) when
// occupancy crosses 3/4. The resize is copy-then-commit: the new
// generation is fully built and populated before the one-swap commit,
// so any failure leaves the live table exactly as it was.
func (kv *KV) maybeResize() error {
	if (kv.tab.live+kv.tab.tombs)*4 < kv.tab.slots*3 {
		return nil
	}
	newSlots := kv.tab.slots
	if kv.tab.live*2 >= kv.tab.slots {
		newSlots *= 2
	}
	return kv.resize(newSlots)
}

func (kv *KV) resize(newSlots int64) error {
	nt, err := kv.buildTable(newSlots, kv.m)
	if err != nil {
		return err
	}
	for i := int64(0); i < kv.tab.slots; i++ {
		kv.m.Tick(1)
		h := kv.m.LoadInt(kv.headerAddr(&kv.tab, i))
		if h>>32 != kvStateLive {
			continue
		}
		key := uint32(h)
		val := kv.readValue(&kv.tab, kv.m, i)
		if err := kv.putInto(nt, kv.m, key, val); err != nil {
			kv.freeGroups(nt.groups, nt.cold)
			return err
		}
	}
	old := kv.tab
	kv.tab = *nt
	kv.resizes++
	kv.freeGroups(old.groups, old.cold)
	return nil
}

// Get looks key up, reading the full payload on a hit.
func (kv *KV) Get(key uint32) (int64, bool) {
	i, ok := kv.find(&kv.tab, kv.m, key)
	if !ok {
		return 0, false
	}
	return kv.readValue(&kv.tab, kv.m, i), true
}

// Put inserts or overwrites key. Failures (resize allocation,
// placement veto, full table) are typed and leave the store intact.
func (kv *KV) Put(key uint32, val int64) error {
	if err := kv.maybeResize(); err != nil {
		return err
	}
	return kv.putInto(&kv.tab, kv.m, key, val)
}

// Delete tombstones key, reporting whether it was present.
func (kv *KV) Delete(key uint32) bool {
	i, ok := kv.find(&kv.tab, kv.m, key)
	if !ok {
		return false
	}
	kv.m.StoreInt(kv.headerAddr(&kv.tab, i), kvHeader(key, kvStateTomb))
	kv.tab.live--
	kv.tab.tombs++
	return true
}

// Len returns the number of live keys.
func (kv *KV) Len() int64 { return kv.tab.live }

// Stats summarizes the store.
func (kv *KV) Stats() KVStats {
	hb := int64(0)
	switch {
	case kv.alloc != nil:
		hb = kv.alloc.HeapBytes()
	case kv.region != nil:
		hb = kv.region.Claimed()
	}
	return KVStats{
		Slots: kv.tab.slots, Live: kv.tab.live, Tombstones: kv.tab.tombs,
		Resizes: kv.resizes, Probes: kv.probes, HeapBytes: hb,
	}
}

// RegisterRegions registers the table's extents with rm for
// per-structure miss attribution, attaching field maps for
// field-level profiling, and returns the label of the probe-hot
// region ("<prefix>.buckets" for AoS, "<prefix>.keys" for split).
func (kv *KV) RegisterRegions(rm *telemetry.RegionMap, prefix string) string {
	if kv.cfg.Layout == KVAoS {
		label := prefix + ".buckets"
		rm.RegisterElems(label, append([]memsys.Addr(nil), kv.tab.groups...), kv.groupBytes)
		rm.SetFieldMap(label, layout.MustFieldMap("kv-slot", kvAoSSlot,
			layout.Field{Name: "key", Offset: 0, Size: 4},
			layout.Field{Name: "state", Offset: 4, Size: 4},
			layout.Field{Name: "value", Offset: 8, Size: KVValueBytes},
		))
		return label
	}
	hot := prefix + ".keys"
	rm.RegisterElems(hot, append([]memsys.Addr(nil), kv.tab.groups...), kv.groupBytes)
	rm.SetFieldMap(hot, layout.MustFieldMap("kv-key", kvHeaderBytes,
		layout.Field{Name: "key", Offset: 0, Size: 4},
		layout.Field{Name: "state", Offset: 4, Size: 4},
	))
	cold := prefix + ".values"
	rm.RegisterElems(cold, append([]memsys.Addr(nil), kv.tab.cold...), kv.coldGroupBytes)
	rm.SetFieldMap(cold, layout.MustFieldMap("kv-value", kv.geo.BlockSize,
		layout.Field{Name: "value", Offset: 0, Size: KVValueBytes},
	))
	return hot
}

// Coloring returns the stripe assignment when the store is colored.
func (kv *KV) Coloring() (layout.Coloring, bool) {
	if kv.region == nil {
		return layout.Coloring{}, false
	}
	return kv.region.Coloring()
}

// CheckInvariants verifies the table against simulated memory without
// charging the cache: occupancy counters match a full scan, every
// live key is reachable from its hash bucket, payloads carry their
// key's salt, and colored placements respect the stripe discipline.
// Violations fail with cclerr.ErrCorruptStructure.
func (kv *KV) CheckInvariants() error {
	w := machine.Uncharged(kv.arena)
	t := &kv.tab
	live, tombs := int64(0), int64(0)
	for i := int64(0); i < t.slots; i++ {
		h := w.LoadInt(kv.headerAddr(t, i))
		key, state := uint32(h), h>>32
		switch state {
		case kvStateEmpty:
		case kvStateTomb:
			tombs++
		case kvStateLive:
			live++
			base := kv.valueAddr(t, i)
			v := w.LoadInt(base)
			salt := kvSalt(key)
			for j := int64(1); j < kvValueWords; j++ {
				if got := w.LoadInt(base.Add(j * 8)); got != v^(salt*j) {
					return cclerr.Errorf(cclerr.ErrCorruptStructure,
						"serving: kv slot %d key %d: payload word %d is %#x, want %#x", i, key, j, got, v^(salt*j))
				}
			}
			if j, ok := kv.findUncharged(t, key); !ok || j != i {
				return cclerr.Errorf(cclerr.ErrCorruptStructure,
					"serving: kv key %d at slot %d unreachable from its probe chain", key, i)
			}
		default:
			return cclerr.Errorf(cclerr.ErrCorruptStructure,
				"serving: kv slot %d: invalid state %d", i, state)
		}
	}
	if live != t.live || tombs != t.tombs {
		return cclerr.Errorf(cclerr.ErrCorruptStructure,
			"serving: kv counters live=%d tombs=%d, scan found live=%d tombs=%d",
			t.live, t.tombs, live, tombs)
	}
	if col, ok := kv.Coloring(); ok {
		for _, g := range t.groups {
			if !col.IsHot(g) || !col.IsHot(g.Add(kv.groupBytes-1)) {
				return cclerr.Errorf(cclerr.ErrCorruptStructure,
					"serving: kv header group %v escapes the hot stripe", g)
			}
		}
		for _, g := range t.cold {
			if col.IsHot(g) || col.IsHot(g.Add(kv.coldGroupBytes-1)) {
				return cclerr.Errorf(cclerr.ErrCorruptStructure,
					"serving: kv payload group %v intrudes on the hot stripe", g)
			}
		}
	}
	return nil
}

// findUncharged is find against the arena: no cache charges, no
// probe-counter noise.
func (kv *KV) findUncharged(t *kvTable, key uint32) (int64, bool) {
	w := machine.Uncharged(kv.arena)
	i := kvHash(key) & t.mask
	for {
		h := w.LoadInt(kv.headerAddr(t, i))
		state := h >> 32
		if state == kvStateEmpty {
			return 0, false
		}
		if state == kvStateLive && uint32(h) == key {
			return i, true
		}
		i = (i + 1) & t.mask
	}
}
