// Package trace defines the record/replay format for cache access
// streams: a compact, self-describing capture of a cache geometry plus
// the demand accesses replayed against it.
//
// Traces are the currency of the correctness tooling (see DESIGN.md
// "Verification"): the differential oracle replays a trace through
// both the production simulator (internal/cache) and the naive
// reference simulator (internal/oracle), and any divergence is
// minimized (shrink.Slice over its records, geometry fixed) and
// checked in as a small binary fixture that reproduces the bug
// forever after. Fuzzers use FromBytes to derive a
// valid trace deterministically from arbitrary fuzz input.
//
// One function decodes records, and it has three callers. Decode
// materializes a Trace, for files, fixtures and tests. Check validates
// untrusted bytes without allocating and returns an Encoded: the
// bytes, their geometry, their record count and their work (the
// single-block accesses a replay will make), so a server can bound an
// upload before admitting it. Encoded.Replay then runs the checked
// bytes through a fresh hierarchy, decoding the records a small batch
// at a time as it goes. Check accepts exactly what Decode accepts, and
// the streaming replay gives exactly what Replay(Decode(b)) gives;
// FuzzUploadReplay holds both to that.
package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"os"

	"ccl/internal/cache"
	"ccl/internal/cclerr"
	"ccl/internal/memsys"
)

// Kind is the operation of one trace record. Only demand operations
// are recorded: the oracle's scope is architectural hit/miss/eviction
// behaviour, and prefetches are a timing overlay on top of it.
type Kind uint8

const (
	// Load is a demand read.
	Load Kind = iota
	// Store is a demand write.
	Store
	// kindCount bounds the valid Kind values for decoding.
	kindCount
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// AccessKind converts to the simulator's access kind.
func (k Kind) AccessKind() cache.AccessKind {
	if k == Store {
		return cache.Store
	}
	return cache.Load
}

// Record is one replayed demand access. Core is the issuing core for
// multicore traces; single-core traces leave it 0, and the codec only
// emits the core field (and the version-2 magic) when some record
// sets it, so single-core captures stay byte-identical to version 1.
type Record struct {
	Kind Kind
	Addr memsys.Addr
	Size int64
	Core int
}

// String formats the record the way divergence reports print it.
// Core 0 prints as before so uniprocessor fixtures and goldens keep
// their historical rendering.
func (r Record) String() string {
	if r.Core != 0 {
		return fmt.Sprintf("c%d %s %v+%d", r.Core, r.Kind, r.Addr, r.Size)
	}
	return fmt.Sprintf("%s %v+%d", r.Kind, r.Addr, r.Size)
}

// Trace is a cache geometry plus the access stream replayed against
// it. The geometry rides along so a captured divergence is a complete
// reproduction: no external configuration is needed to replay it.
type Trace struct {
	Config  cache.Config
	Records []Record
}

// magic identifies the binary encoding; bump the trailing version byte
// on incompatible change. Version 1 is the uniprocessor format;
// version 2 adds a per-record core uvarint and is emitted only when a
// trace actually uses non-zero cores, so every version-1 decoder
// artifact (fixtures, goldens) round-trips unchanged.
var (
	magic   = []byte("ccltrc\x00\x01")
	magicV2 = []byte("ccltrc\x00\x02")
)

// maxCores bounds the decoded per-record core index, matching the
// topology limit (machine.TopologyConfig's 64-core cap).
const maxCores = 64

// maxDecodeRecords caps decoded record counts so a corrupt or
// adversarial header cannot force a huge allocation.
const maxDecodeRecords = 1 << 24

// MaxRecordSize caps one record's byte count. A replay walks a record
// one block at a time, so an uncapped size is unbounded work: one
// record of 2^54 bytes fits in a 53-byte upload and replays for
// weeks. It also keeps a size varint of 2^63 or more from wrapping
// negative. Recorded traces stay far below it: the serving
// structures' touch one block per record.
const MaxRecordSize = 1 << 20

// maxLevelSize caps a decoded cache level's capacity. cache.New
// allocates one tag and one line per block, so an adversarial header
// could otherwise force a huge allocation inside whatever replays the
// trace. 64 MiB is 64 times the largest level any experiment builds
// (the §4.1 machine's 1 MB L2).
const maxLevelSize = 64 << 20

// multicore reports whether any record names a non-zero core, which
// selects the version-2 encoding.
func (t Trace) multicore() bool {
	for _, r := range t.Records {
		if r.Core != 0 {
			return true
		}
	}
	return false
}

// Encode serializes the trace to its compact binary form: the magic,
// the geometry, then each record as a kind byte, an optional core
// uvarint (version 2 only), a zigzag address delta from the previous
// record's address (streams have strong locality, so deltas stay
// short), and a size varint.
func (t Trace) Encode() []byte {
	v2 := t.multicore()
	m := magic
	if v2 {
		m = magicV2
	}
	buf := append([]byte(nil), m...)
	buf = binary.AppendUvarint(buf, uint64(len(t.Config.Levels)))
	for _, l := range t.Config.Levels {
		buf = binary.AppendUvarint(buf, uint64(len(l.Name)))
		buf = append(buf, l.Name...)
		buf = binary.AppendUvarint(buf, uint64(l.Size))
		buf = binary.AppendUvarint(buf, uint64(l.Assoc))
		buf = binary.AppendUvarint(buf, uint64(l.BlockSize))
		buf = binary.AppendUvarint(buf, uint64(l.Latency))
		wb := uint64(0)
		if l.WriteBack {
			wb = 1
		}
		buf = binary.AppendUvarint(buf, wb)
	}
	buf = binary.AppendUvarint(buf, uint64(t.Config.MemLatency))
	buf = binary.AppendUvarint(buf, uint64(len(t.Records)))
	prev := int64(0)
	for _, r := range t.Records {
		buf = append(buf, byte(r.Kind))
		if v2 {
			buf = binary.AppendUvarint(buf, uint64(r.Core))
		}
		buf = binary.AppendVarint(buf, int64(r.Addr)-prev)
		buf = binary.AppendUvarint(buf, uint64(r.Size))
		prev = int64(r.Addr)
	}
	return buf
}

// uvarint decodes the unsigned varint at data[off:] exactly as
// binary.Uvarint does and returns it with the offset after it; ok is
// false when the varint is truncated or overflows 64 bits. It is small
// enough to inline, so the record decoder runs its loop in place.
func uvarint(data []byte, off int) (v uint64, next int, ok bool) {
	for s := uint(0); off < len(data) && s < 64; s += 7 {
		b := data[off]
		off++
		v |= uint64(b&0x7f) << s
		if b < 0x80 {
			// The tenth byte may only carry bit 63.
			return v, off, s < 63 || b <= 1
		}
	}
	return 0, off, false
}

// maxLevels bounds a decoded geometry's level count.
const maxLevels = 8

// minRecordBytes is the shortest encoded record: a kind byte, a
// one-byte address delta and a one-byte size.
const minRecordBytes = 3

// header is an encoding's geometry and record count, read without
// allocating: the levels' names stay in the input, at names, until
// config copies them out.
type header struct {
	levels  [maxLevels]cache.LevelConfig // Name left blank
	names   [maxLevels][2]int            // [start, end) of each name in the input
	nLevels int
	mem     int64
	v2      bool
	records int  // record count
	body    int  // offset of the first record
	shift   uint // log2 of the smallest block size, the step of a replay's block walk
}

// readHeader decodes and validates data's magic, geometry and record
// count.
func readHeader(data []byte) (header, error) {
	var h header
	switch {
	case bytes.HasPrefix(data, magic):
	case bytes.HasPrefix(data, magicV2):
		h.v2 = true
	default:
		return h, fmt.Errorf("trace: bad magic")
	}
	off := len(magic)
	n, off, ok := uvarint(data, off)
	if !ok {
		return h, errTruncated(off)
	}
	if n == 0 || n > maxLevels {
		return h, fmt.Errorf("trace: implausible level count %d", n)
	}
	h.nLevels = int(n)
	minBlock := int64(0)
	for i := range h.levels[:h.nLevels] {
		nameLen, next, ok := uvarint(data, off)
		if !ok {
			return h, errTruncated(off)
		}
		if nameLen > 64 {
			return h, fmt.Errorf("trace: level name of %d bytes", nameLen)
		}
		if nameLen > uint64(len(data)-next) {
			return h, fmt.Errorf("trace: truncated field at offset %d", next)
		}
		off = next + int(nameLen)
		h.names[i] = [2]int{next, off}
		// size, assoc, block size, latency, write-back
		var f [5]uint64
		for j := range f {
			if f[j], off, ok = uvarint(data, off); !ok {
				return h, errTruncated(off)
			}
		}
		l := &h.levels[i]
		l.Size, l.Assoc, l.BlockSize, l.Latency, l.WriteBack = int64(f[0]), int(f[1]), int64(f[2]), int64(f[3]), f[4] != 0
		if i == 0 || l.BlockSize < minBlock {
			minBlock = l.BlockSize
		}
	}
	mem, off, ok := uvarint(data, off)
	if !ok {
		return h, errTruncated(off)
	}
	h.mem = int64(mem)
	// Validated with blank names, which cost no allocation; the names
	// are copied out only to report a failure.
	if (cache.Config{Levels: h.levels[:h.nLevels], MemLatency: h.mem}).Validate() != nil {
		return h, fmt.Errorf("trace: decoded config invalid: %w", h.config(data).Validate())
	}
	for i, l := range h.levels[:h.nLevels] {
		if l.Size > maxLevelSize {
			return h, fmt.Errorf("trace: level %q of %d bytes exceeds the %d-byte cap",
				data[h.names[i][0]:h.names[i][1]], l.Size, maxLevelSize)
		}
	}
	h.shift = uint(bits.TrailingZeros64(uint64(minBlock)))
	nRec, off, ok := uvarint(data, off)
	if !ok {
		return h, errTruncated(off)
	}
	// The second bound keeps Decode's record slice within what the
	// input can hold.
	if nRec > maxDecodeRecords || nRec > uint64(len(data)-off)/minRecordBytes {
		return h, fmt.Errorf("trace: implausible record count %d for %d bytes", nRec, len(data)-off)
	}
	h.records, h.body = int(nRec), off
	return h, nil
}

// config copies the geometry out of the header, names included.
func (h *header) config(data []byte) cache.Config {
	cfg := cache.Config{Levels: make([]cache.LevelConfig, h.nLevels), MemLatency: h.mem}
	for i := range cfg.Levels {
		cfg.Levels[i] = h.levels[i]
		cfg.Levels[i].Name = string(data[h.names[i][0]:h.names[i][1]])
	}
	return cfg
}

func errTruncated(off int) error {
	return fmt.Errorf("trace: truncated at offset %d", off)
}

// records decodes len(out) records from data[off:] into out and
// returns the offset after them; the first record's address is a
// delta from prev. It is the one record decoder: Decode runs it over
// its whole record slice, and Check and Encoded.Replay over a small
// buffer on the stack (batches), so what Check accepts a replay can
// run and Decode agrees. Its varint loops are inlined.
func records(data []byte, off int, prev int64, v2 bool, out []Record) (int, error) {
	for i := range out {
		if off >= len(data) {
			return off, errTruncated(off)
		}
		k := Kind(data[off])
		if k >= kindCount {
			return off, fmt.Errorf("trace: unknown kind %d at offset %d", k, off)
		}
		off++
		var core, zz, size uint64
		ok := true
		if v2 {
			if core, off, ok = uvarint(data, off); !ok || core >= maxCores {
				return off, fmt.Errorf("trace: bad core before offset %d", off)
			}
		}
		if zz, off, ok = uvarint(data, off); !ok {
			return off, errTruncated(off)
		}
		if size, off, ok = uvarint(data, off); !ok {
			return off, errTruncated(off)
		}
		addr := prev + (int64(zz>>1) ^ -int64(zz&1)) // zigzag, as binary.Varint
		// size-1 wraps for 0, so one compare keeps size in [1, MaxRecordSize].
		if addr < 0 || size-1 >= MaxRecordSize || addr > math.MaxInt64-int64(size) {
			return off, fmt.Errorf("trace: record of %d bytes at address %d before offset %d: want a size in [1, %d] inside the address space",
				size, addr, off, MaxRecordSize)
		}
		out[i] = Record{Kind: k, Addr: memsys.Addr(addr), Size: int64(size), Core: int(core)}
		prev = addr
	}
	return off, nil
}

// batchLen is how many records a batch holds.
const batchLen = 256

// batches walks an encoding's records a batch at a time, decoding each
// batch into a buffer of its own, so a walk allocates nothing per
// record. Check and Encoded.Replay keep one on the stack.
type batches struct {
	data []byte
	off  int
	prev int64
	left int
	v2   bool
	buf  [batchLen]Record
}

// next decodes and returns the next batch. After the last record it
// returns an empty batch, or an error when bytes trail the records.
func (b *batches) next() ([]Record, error) {
	if b.left == 0 {
		return nil, trailing(b.data, b.off)
	}
	batch := b.buf[:min(b.left, batchLen)]
	var err error
	if b.off, err = records(b.data, b.off, b.prev, b.v2, batch); err != nil {
		return nil, err
	}
	b.left -= len(batch)
	b.prev = int64(batch[len(batch)-1].Addr)
	return batch, nil
}

func trailing(data []byte, off int) error {
	if off != len(data) {
		return fmt.Errorf("trace: %d trailing bytes", len(data)-off)
	}
	return nil
}

// blocks is how many blocks of 1<<shift bytes r touches: the
// accessOne calls cache.Hierarchy.Access makes for it.
func blocks(r Record, shift uint) int64 {
	shift &= 63 // lets the compiler drop its check for shifts past 63
	return (int64(r.Addr)+r.Size-1)>>shift - int64(r.Addr)>>shift + 1
}

// Decode parses an encoded trace. The returned trace's configuration
// is validated, so a successfully decoded trace is always replayable.
// Every decode failure wraps cclerr.ErrCorruptTrace, so callers can
// classify truncated or bit-flipped captures without string matching.
func Decode(data []byte) (Trace, error) {
	h, err := readHeader(data)
	if err != nil {
		return Trace{}, corrupt(err)
	}
	t := Trace{Config: h.config(data), Records: make([]Record, h.records)}
	off, err := records(data, h.body, 0, h.v2, t.Records)
	if err == nil {
		err = trailing(data, off)
	}
	if err != nil {
		return Trace{}, corrupt(err)
	}
	return t, nil
}

func corrupt(err error) error {
	return fmt.Errorf("%w: %w", cclerr.ErrCorruptTrace, err)
}

// Encoded is an encoded trace that Check accepted. It keeps the bytes
// and replays them in place: a replay decodes the records a small
// batch at a time as it reaches them, so no record slice is ever
// built. Callers must not modify the bytes after Check.
type Encoded struct {
	data []byte
	h    header
	work int64
}

// Check validates an encoding without allocating. It accepts exactly
// the inputs Decode accepts, and every rejection wraps
// cclerr.ErrCorruptTrace. The result knows its record count and its
// work before anything replays it.
func Check(data []byte) (Encoded, error) {
	h, err := readHeader(data)
	if err != nil {
		return Encoded{}, corrupt(err)
	}
	b := batches{data: data, off: h.body, left: h.records, v2: h.v2}
	var work int64
	for {
		batch, err := b.next()
		if err != nil {
			return Encoded{}, corrupt(err)
		}
		if len(batch) == 0 {
			return Encoded{data: data, h: h, work: work}, nil
		}
		for _, r := range batch {
			work += blocks(r, h.shift)
		}
	}
}

// Len returns the encoding's record count.
func (e *Encoded) Len() int { return e.h.records }

// Work returns the blocks the records touch at the geometry's
// smallest block size: the single-block accesses a replay makes, and
// so a bound on its host time that is known before it runs.
func (e *Encoded) Work() int64 { return e.work }

// Config returns the encoding's geometry.
func (e *Encoded) Config() cache.Config { return e.h.config(e.data) }

// Multicore reports whether the encoding is version 2, whose records
// carry the core that issued them. Replay ignores the core ids.
func (e *Encoded) Multicore() bool { return e.h.v2 }

// Replay builds a fresh hierarchy from the encoding's geometry and
// hands it each record as the records are decoded. It returns exactly
// what Replay(Decode(data)) returns: the hierarchy, for its
// statistics, and the cycles charged.
func (e *Encoded) Replay() (*cache.Hierarchy, int64) {
	h := cache.New(e.Config())
	var total int64
	b := batches{data: e.data, off: e.h.body, left: e.h.records, v2: e.h.v2}
	// Check accepted every record, so next cannot fail.
	for batch, _ := b.next(); len(batch) > 0; batch, _ = b.next() {
		for _, r := range batch {
			total += h.Access(r.Addr, r.Size, r.Kind.AccessKind())
		}
	}
	return h, total
}

// WriteFile encodes the trace to path. Divergence fixtures under
// testdata/ are written with it.
func WriteFile(path string, t Trace) error {
	return os.WriteFile(path, t.Encode(), 0o644)
}

// ReadFile decodes the trace stored at path.
func ReadFile(path string) (Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Trace{}, err
	}
	t, err := Decode(data)
	if err != nil {
		return Trace{}, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}
