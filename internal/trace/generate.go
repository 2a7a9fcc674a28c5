package trace

import (
	"ccl/internal/cache"
	"ccl/internal/memsys"
)

// Fuzz-input derivation: FromBytes maps arbitrary bytes onto a valid
// trace, so `go test -fuzz` explores cache geometries and access
// streams without wasting executions on unparseable inputs. The
// mapping is total on inputs of at least geomBytes bytes and
// deterministic, which keeps the fuzz corpus stable across runs.

// geomBytes is the number of leading input bytes consumed by the
// geometry; the remainder encodes records at recBytes apiece.
const (
	geomBytes = 7
	recBytes  = 4
)

// FromBytes derives a valid trace from fuzz input. It reports false
// when data is too short to name a geometry. Every returned trace has
// a validated configuration with at least 1-cycle level latencies (a
// zero-latency level would let the simulated clock stall, making LRU
// timestamp order ambiguous — see oracle's package comment).
func FromBytes(data []byte) (Trace, bool) {
	if len(data) < geomBytes {
		return Trace{}, false
	}
	var t Trace
	nLevels := 1 + int(data[0])%3
	names := []string{"L1", "L2", "L3"}
	for i := 0; i < nLevels; i++ {
		b1 := data[1+2*i]
		b2 := data[2+2*i]
		block := int64(8) << (b1 % 4)   // 8..64 bytes
		assoc := 1 + int(b1>>2)%4       // 1..4 ways
		sets := int64(1) + int64(b2%32) // 1..32 sets, any count
		t.Config.Levels = append(t.Config.Levels, cache.LevelConfig{
			Name:      names[i],
			Size:      sets * int64(assoc) * block,
			Assoc:     assoc,
			BlockSize: block,
			Latency:   1 + int64(b2>>5)%4, // 1..4 cycles
			WriteBack: b1&0x40 != 0,
		})
	}
	t.Config.MemLatency = 20
	if err := t.Config.Validate(); err != nil {
		// Unreachable by construction; fail closed if the generator
		// and validator ever drift.
		return Trace{}, false
	}
	for off := geomBytes; off+recBytes <= len(data); off += recBytes {
		b := data[off : off+recBytes]
		k := Load
		if b[0]&1 == 1 {
			k = Store
		}
		// Addresses span a 64 KB window so small geometries see rich
		// tag conflicts; sizes up to 16 bytes cross block boundaries
		// of the smaller geometries.
		addr := memsys.Addr(uint64(b[1])<<8 | uint64(b[2]))
		size := 1 + int64(b[3]%16)
		t.Records = append(t.Records, Record{Kind: k, Addr: addr, Size: size})
	}
	return t, true
}
