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
)

// KVConfig configures a store.
type KVConfig struct {
	Layout    KVLayout
	Placement KVPlacement
	// Slots is the table's fixed capacity: a power of two. The table
	// holds at most Slots-1 keys, since one empty slot must remain to
	// end every probe; size it for the keys it will hold.
	Slots int64
	// ColorFrac is the hot-stripe fraction for KVColored; 0 selects
	// the 0.5 default.
	ColorFrac float64
}

// KVStats summarizes a store.
type KVStats struct {
	Slots, Live int64
	Probes      int64 // total header loads across all ops
	HeapBytes   int64 // arena bytes claimed for the table
}

// KV is an open-addressing (linear probing) hash table of fixed
// capacity over the simulated heap, the serving family's key/value
// store. All runtime accesses go through a machine.Mem.
type KV struct {
	m     machine.Mem
	arena *memsys.Arena
	cfg   KVConfig
	geo   layout.Geometry

	alloc          heap.Allocator // KVMalloc / KVCCMalloc group source
	region         *layout.Region // KVColored group source
	groupSlots     int64          // slots per group
	groupBytes     int64          // header-group byte size
	coldGroupBytes int64          // payload-group byte size (split)

	mask         int64 // Slots-1: the table index is the hash's low bits
	live, probes int64
	// groups holds the slot groups (AoS) or header groups (split),
	// one block-sized group of groupSlots slots each.
	groups []memsys.Addr
	// cold holds the split layout's payload groups, parallel to
	// groups; nil for AoS.
	cold []memsys.Addr
}

// NewKV builds an empty store of cfg.Slots slots over m's arena.
// Construction writes are uncharged (setup phase); pass the returned
// store a stream of ops to generate measured traffic. Configuration
// errors are typed cclerr.ErrInvalidArg; allocation failures — arena
// exhaustion, a vetoed placement — propagate the allocator's typed
// error.
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
	if err := kv.buildTable(); err != nil {
		return nil, err
	}
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

// headerAddr returns the address of slot i's header word.
func (kv *KV) headerAddr(i int64) memsys.Addr {
	g, r := i/kv.groupSlots, i%kv.groupSlots
	if kv.cfg.Layout == KVAoS {
		return kv.groups[g].Add(r * kvAoSSlot)
	}
	return kv.groups[g].Add(r * kvHeaderBytes)
}

// valueAddr returns the address of slot i's payload.
func (kv *KV) valueAddr(i int64) memsys.Addr {
	g, r := i/kv.groupSlots, i%kv.groupSlots
	if kv.cfg.Layout == KVAoS {
		return kv.groups[g].Add(r*kvAoSSlot + kvHeaderBytes)
	}
	return kv.cold[g].Add(r * kv.geo.BlockSize)
}

func kvHeader(key uint32, state int64) int64 { return int64(key) | state<<32 }

// allocGroup places one header group: in the hot stripe under
// KVColored — always, however far past the region's hot budget the
// table reaches, since every probe reads headers — and hint-chained to
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

// buildTable places and zeroes the table's groups, writing through
// the arena (construction is uncharged). A failed placement returns
// its typed error; NewKV then discards the half-built store.
func (kv *KV) buildTable() error {
	n := kv.cfg.Slots / kv.groupSlots
	kv.mask = kv.cfg.Slots - 1
	kv.groups = make([]memsys.Addr, 0, n)
	if kv.cfg.Layout == KVSplit {
		kv.cold = make([]memsys.Addr, 0, n)
	}
	prev := memsys.NilAddr
	for g := int64(0); g < n; g++ {
		ga, err := kv.allocGroup(prev)
		if err != nil {
			return fmt.Errorf("serving: kv table of %d slots: %w", kv.cfg.Slots, err)
		}
		kv.groups = append(kv.groups, ga)
		prev = ga
		if kv.cfg.Layout == KVSplit {
			ca, err := kv.allocColdGroup()
			if err != nil {
				return fmt.Errorf("serving: kv table of %d slots: %w", kv.cfg.Slots, err)
			}
			kv.cold = append(kv.cold, ca)
		}
	}
	w := machine.Uncharged(kv.arena)
	for i := int64(0); i < kv.cfg.Slots; i++ {
		w.StoreInt(kv.headerAddr(i), kvHeader(0, kvStateEmpty))
	}
	return nil
}

// find probes for the slot holding key, charging one header load and
// one compare cycle per step, and returns it — or, when key is absent,
// the empty slot that ended the probe. The table always keeps at least
// one empty slot, so the probe terminates.
func (kv *KV) find(key uint32) (int64, bool) {
	i := kvHash(key) & kv.mask
	for {
		kv.m.Tick(1)
		kv.probes++
		h := kv.m.LoadInt(kv.headerAddr(i))
		if h>>32 == kvStateEmpty {
			return i, false
		}
		if uint32(h) == key {
			return i, true
		}
		i = (i + 1) & kv.mask
	}
}

// kvSalt derives the per-key payload salt; payload words are
// (value, value^salt, value^2*salt, ...) so integrity checks can
// verify a payload against its key without host-side shadow state.
func kvSalt(key uint32) int64 { return int64(uint64(key) * 0x9e3779b97f4a7c15) }

func (kv *KV) writeValue(i int64, key uint32, val int64) {
	base := kv.valueAddr(i)
	salt := kvSalt(key)
	for j := int64(0); j < kvValueWords; j++ {
		kv.m.StoreInt(base.Add(j*8), val^(salt*j))
	}
}

// readValue reads the full payload (a response copy) and returns the
// value word.
func (kv *KV) readValue(i int64) int64 {
	base := kv.valueAddr(i)
	v := kv.m.LoadInt(base)
	for j := int64(1); j < kvValueWords; j++ {
		_ = kv.m.LoadInt(base.Add(j * 8))
	}
	return v
}

// Get looks key up, reading the full payload on a hit.
func (kv *KV) Get(key uint32) (int64, bool) {
	i, ok := kv.find(key)
	if !ok {
		return 0, false
	}
	return kv.readValue(i), true
}

// Put inserts or overwrites key. An insert that would take the table's
// last empty slot — the slot that ends every probe — fails with
// cclerr.ErrOutOfMemory and leaves the store unchanged.
func (kv *KV) Put(key uint32, val int64) error {
	i, ok := kv.find(key)
	if !ok {
		if kv.live+1 >= kv.cfg.Slots {
			return cclerr.Errorf(cclerr.ErrOutOfMemory,
				"serving: kv table full at %d/%d slots", kv.live, kv.cfg.Slots)
		}
		kv.m.StoreInt(kv.headerAddr(i), kvHeader(key, kvStateLive))
		kv.live++
	}
	kv.writeValue(i, key, val)
	return nil
}

// Len returns the number of live keys.
func (kv *KV) Len() int64 { return kv.live }

// Stats summarizes the store.
func (kv *KV) Stats() KVStats {
	hb := int64(0)
	switch {
	case kv.alloc != nil:
		hb = kv.alloc.HeapBytes()
	case kv.region != nil:
		hb = kv.region.Claimed()
	}
	return KVStats{Slots: kv.cfg.Slots, Live: kv.live, Probes: kv.probes, HeapBytes: hb}
}

// RegisterRegions registers the table's extents with rm for
// per-structure miss attribution, attaching field maps for
// field-level profiling, and returns the label of the probe-hot
// region ("<prefix>.buckets" for AoS, "<prefix>.keys" for split).
func (kv *KV) RegisterRegions(rm *telemetry.RegionMap, prefix string) string {
	if kv.cfg.Layout == KVAoS {
		label := prefix + ".buckets"
		rm.RegisterElems(label, append([]memsys.Addr(nil), kv.groups...), kv.groupBytes)
		rm.SetFieldMap(label, layout.MustFieldMap("kv-slot", kvAoSSlot,
			layout.Field{Name: "key", Offset: 0, Size: 4},
			layout.Field{Name: "state", Offset: 4, Size: 4},
			layout.Field{Name: "value", Offset: 8, Size: KVValueBytes},
		))
		return label
	}
	hot := prefix + ".keys"
	rm.RegisterElems(hot, append([]memsys.Addr(nil), kv.groups...), kv.groupBytes)
	rm.SetFieldMap(hot, layout.MustFieldMap("kv-key", kvHeaderBytes,
		layout.Field{Name: "key", Offset: 0, Size: 4},
		layout.Field{Name: "state", Offset: 4, Size: 4},
	))
	cold := prefix + ".values"
	rm.RegisterElems(cold, append([]memsys.Addr(nil), kv.cold...), kv.coldGroupBytes)
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
// charging the cache: the live counter matches a full scan and leaves
// an empty slot, every live key is reachable from its hash bucket,
// payloads carry their key's salt, and colored placements respect the
// stripe discipline. Violations fail with cclerr.ErrCorruptStructure.
func (kv *KV) CheckInvariants() error {
	w := machine.Uncharged(kv.arena)
	live := int64(0)
	for i := int64(0); i < kv.cfg.Slots; i++ {
		h := w.LoadInt(kv.headerAddr(i))
		key, state := uint32(h), h>>32
		switch state {
		case kvStateEmpty:
		case kvStateLive:
			live++
			base := kv.valueAddr(i)
			v := w.LoadInt(base)
			salt := kvSalt(key)
			for j := int64(1); j < kvValueWords; j++ {
				if got := w.LoadInt(base.Add(j * 8)); got != v^(salt*j) {
					return cclerr.Errorf(cclerr.ErrCorruptStructure,
						"serving: kv slot %d key %d: payload word %d is %#x, want %#x", i, key, j, got, v^(salt*j))
				}
			}
			if j, ok := kv.findUncharged(key); !ok || j != i {
				return cclerr.Errorf(cclerr.ErrCorruptStructure,
					"serving: kv key %d at slot %d unreachable from its probe chain", key, i)
			}
		default:
			return cclerr.Errorf(cclerr.ErrCorruptStructure,
				"serving: kv slot %d: invalid state %d", i, state)
		}
	}
	if live != kv.live || live >= kv.cfg.Slots {
		return cclerr.Errorf(cclerr.ErrCorruptStructure,
			"serving: kv counter live=%d, scan found live=%d of %d slots", kv.live, live, kv.cfg.Slots)
	}
	if col, ok := kv.Coloring(); ok {
		for _, g := range kv.groups {
			if !col.IsHot(g) || !col.IsHot(g.Add(kv.groupBytes-1)) {
				return cclerr.Errorf(cclerr.ErrCorruptStructure,
					"serving: kv header group %v escapes the hot stripe", g)
			}
		}
		for _, g := range kv.cold {
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
func (kv *KV) findUncharged(key uint32) (int64, bool) {
	w := machine.Uncharged(kv.arena)
	i := kvHash(key) & kv.mask
	for {
		h := w.LoadInt(kv.headerAddr(i))
		if h>>32 == kvStateEmpty {
			return 0, false
		}
		if uint32(h) == key {
			return i, true
		}
		i = (i + 1) & kv.mask
	}
}
