package telemetry

import (
	"testing"

	"ccl/internal/memsys"
	"ccl/internal/trace"
)

// FuzzThreeCSum replays fuzz-derived traces (trace.FromBytes) through
// an observed hierarchy and checks the 3C classification against the
// naive reference classifier — every access's LastLLMissClass and
// each level's class counts — and the accounting identity: compulsory
// + capacity + conflict misses must equal each level's demand miss
// counter, for any geometry and access stream.
func FuzzThreeCSum(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 1, 0, 0, 0, 0, 0, 0, 0, 8, 15})
	f.Add([]byte{2, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 255, 254, 1, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, ok := trace.FromBytes(data)
		if !ok {
			return
		}
		if err := checkThreeC(tr); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzRegionFind drives RegionMap registrations and lookups from raw
// bytes and holds find and Resolve to a linear scan (checkLookup).
// Each 4-byte group is one op: op, address low byte, address high
// byte, arg. The address is the 16-bit value plus one memo lap when op
// bit 7 is set, so lookups in the two laps share memo slots. An even
// op registers 1 + (op>>1)&7 elements under label (op>>4)&3 through
// RegisterElems, of size 1 + arg&63 at a stride that many bytes plus
// 4*(arg>>6), skipping any that would overlap; an odd op looks the
// address up, calling Resolve first when op bit 1 is set.
func FuzzRegionFind(f *testing.F) {
	f.Add([]byte{})
	// Two 20-byte elements at a 24-byte stride share a 64-byte window;
	// look up the first, then the second (answering it from the first
	// one's slot is wrong), then the header gap between them.
	f.Add([]byte{0x02, 0x00, 0x01, 0x53, 0x01, 0x00, 0x01, 0x00, 0x01, 0x18, 0x01, 0x00, 0x01, 0x14, 0x01, 0x00})
	// The same range looked up in both memo laps, Resolve first.
	f.Add([]byte{0x00, 0x40, 0x00, 0x3f, 0x03, 0x50, 0x00, 0x00, 0x83, 0x50, 0x00, 0x00, 0x01, 0x50, 0x00, 0x00})
	labels := []string{"a", "b", "c", "d"}
	f.Fuzz(func(t *testing.T, data []byte) {
		m := NewRegionMap(1)
		var regs []regRange
		for ; len(data) >= 4; data = data[4:] {
			op, arg := data[0], data[3]
			a := memsys.Addr(uint32(data[2])<<8 | uint32(data[1]))
			if op&0x80 != 0 {
				a += memoLap
			}
			if op&1 == 0 {
				size := int64(1 + arg&63)
				regs = registerElems(m, regs, labels[op>>4&3], run(a, 1+int(op>>1&7), size+4*int64(arg>>6)), size)
				continue
			}
			if err := checkLookup(m, regs, a, op&2 != 0); err != nil {
				t.Fatal(err)
			}
		}
	})
}
