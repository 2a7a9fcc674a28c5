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
package trace

import (
	"encoding/binary"
	"fmt"
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

// decoder is a cursor over an encoded trace.
type decoder struct {
	buf []byte
	off int
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("trace: truncated varint at offset %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("trace: truncated varint at offset %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *decoder) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(d.buf)-d.off) {
		return nil, fmt.Errorf("trace: truncated field at offset %d", d.off)
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b, nil
}

func (d *decoder) byteVal() (byte, error) {
	if d.off >= len(d.buf) {
		return 0, fmt.Errorf("trace: truncated record at offset %d", d.off)
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

// Decode parses an encoded trace. The returned trace's configuration
// is validated, so a successfully decoded trace is always replayable.
// Every decode failure wraps cclerr.ErrCorruptTrace, so callers can
// classify truncated or bit-flipped captures without string matching.
func Decode(data []byte) (Trace, error) {
	t, err := decode(data)
	if err != nil {
		return t, fmt.Errorf("%w: %w", cclerr.ErrCorruptTrace, err)
	}
	return t, nil
}

func decode(data []byte) (Trace, error) {
	var t Trace
	v2 := false
	switch {
	case len(data) >= len(magic) && string(data[:len(magic)]) == string(magic):
	case len(data) >= len(magicV2) && string(data[:len(magicV2)]) == string(magicV2):
		v2 = true
	default:
		return t, fmt.Errorf("trace: bad magic")
	}
	d := &decoder{buf: data, off: len(magic)}
	nLevels, err := d.uvarint()
	if err != nil {
		return t, err
	}
	if nLevels == 0 || nLevels > 8 {
		return t, fmt.Errorf("trace: implausible level count %d", nLevels)
	}
	for i := uint64(0); i < nLevels; i++ {
		var l cache.LevelConfig
		nameLen, err := d.uvarint()
		if err != nil {
			return t, err
		}
		if nameLen > 64 {
			return t, fmt.Errorf("trace: level name of %d bytes", nameLen)
		}
		name, err := d.bytes(nameLen)
		if err != nil {
			return t, err
		}
		l.Name = string(name)
		fields := []*int64{&l.Size, nil, &l.BlockSize, &l.Latency}
		for fi, p := range fields {
			v, err := d.uvarint()
			if err != nil {
				return t, err
			}
			if fi == 1 {
				l.Assoc = int(v)
				continue
			}
			*p = int64(v)
		}
		wb, err := d.uvarint()
		if err != nil {
			return t, err
		}
		l.WriteBack = wb != 0
		t.Config.Levels = append(t.Config.Levels, l)
	}
	mem, err := d.uvarint()
	if err != nil {
		return t, err
	}
	t.Config.MemLatency = int64(mem)
	if err := t.Config.Validate(); err != nil {
		return t, fmt.Errorf("trace: decoded config invalid: %w", err)
	}
	for _, l := range t.Config.Levels {
		if l.Size > maxLevelSize {
			return t, fmt.Errorf("trace: level %q of %d bytes exceeds the %d-byte cap", l.Name, l.Size, maxLevelSize)
		}
	}
	nRec, err := d.uvarint()
	if err != nil {
		return t, err
	}
	if nRec > maxDecodeRecords {
		return t, fmt.Errorf("trace: implausible record count %d", nRec)
	}
	t.Records = make([]Record, 0, nRec)
	prev := int64(0)
	for i := uint64(0); i < nRec; i++ {
		kb, err := d.byteVal()
		if err != nil {
			return t, err
		}
		if kb >= byte(kindCount) {
			return t, fmt.Errorf("trace: record %d: unknown kind %d", i, kb)
		}
		core := uint64(0)
		if v2 {
			core, err = d.uvarint()
			if err != nil {
				return t, err
			}
			if core >= maxCores {
				return t, fmt.Errorf("trace: record %d: implausible core %d", i, core)
			}
		}
		delta, err := d.varint()
		if err != nil {
			return t, err
		}
		size, err := d.uvarint()
		if err != nil {
			return t, err
		}
		addr := prev + delta
		if addr < 0 || size == 0 {
			return t, fmt.Errorf("trace: record %d: invalid addr/size (%d, %d)", i, addr, size)
		}
		t.Records = append(t.Records, Record{Kind: Kind(kb), Addr: memsys.Addr(addr), Size: int64(size), Core: int(core)})
		prev = addr
	}
	if d.off != len(data) {
		return t, fmt.Errorf("trace: %d trailing bytes", len(data)-d.off)
	}
	return t, nil
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
