package trace

import (
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"ccl/internal/cache"
	"ccl/internal/cclerr"
)

func sampleTrace() Trace {
	return Trace{
		Config: cache.Config{
			Levels: []cache.LevelConfig{
				{Name: "L1", Size: 1 << 10, Assoc: 2, BlockSize: 16, Latency: 1},
				{Name: "L2", Size: 8 << 10, Assoc: 4, BlockSize: 64, Latency: 6, WriteBack: true},
			},
			MemLatency: 50,
		},
		Records: []Record{
			{Kind: Load, Addr: 8192, Size: 4},
			{Kind: Store, Addr: 8200, Size: 8},
			{Kind: Load, Addr: 64, Size: 16},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := sampleTrace()
	got, err := Decode(tr.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatalf("round trip changed trace:\ngot  %+v\nwant %+v", got, tr)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	enc := sampleTrace().Encode()
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", []byte("not a trace at all")},
		{"truncated header", enc[:len(magic)+1]},
		{"truncated records", enc[:len(enc)-2]},
		{"trailing garbage", append(append([]byte(nil), enc...), 0xFF)},
	}
	for _, c := range cases {
		if _, err := Decode(c.data); err == nil {
			t.Errorf("%s: Decode accepted corrupt input", c.name)
		}
	}
}

func TestDecodeRejectsInvalidConfig(t *testing.T) {
	cases := []struct {
		name  string
		level cache.LevelConfig
	}{
		{"block size not a power of two", cache.LevelConfig{Name: "L1", Size: 1 << 10, Assoc: 2, BlockSize: 24, Latency: 1}},
		// BlockSize*Assoc wraps to 0, which used to panic Validate
		// with an integer divide by zero.
		{"assoc*block overflows", cache.LevelConfig{Name: "L1", Size: 1 << 10, Assoc: 1 << 60, BlockSize: 16, Latency: 1}},
		// A negative latency made a hit cost -5 cycles and ran the
		// clock backward.
		{"negative latency", cache.LevelConfig{Name: "L1", Size: 1 << 10, Assoc: 2, BlockSize: 16, Latency: -5}},
		{"level above maxLevelSize", cache.LevelConfig{Name: "L1", Size: 2 * maxLevelSize, Assoc: 2, BlockSize: 64, Latency: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := sampleTrace()
			tr.Config.Levels[0] = c.level
			_, err := Decode(tr.Encode())
			if err == nil {
				t.Fatal("Decode accepted an invalid config")
			}
			if !errors.Is(err, cclerr.ErrCorruptTrace) {
				t.Fatalf("rejection %v does not wrap ErrCorruptTrace", err)
			}
		})
	}
	// The cap itself is allowed.
	tr := sampleTrace()
	tr.Config.Levels[1].Size = maxLevelSize
	if _, err := Decode(tr.Encode()); err != nil {
		t.Fatalf("a level of exactly maxLevelSize: %v", err)
	}
}

// overflowTrace is sampleTrace with an L1 associativity whose product
// with the block size wraps to zero: the encoding a hostile upload
// would use to crash a decoder that multiplies them.
func overflowTrace() []byte {
	tr := sampleTrace()
	tr.Config.Levels[0].Assoc = 1 << 60
	return tr.Encode()
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.trace")
	tr := sampleTrace()
	if err := WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatalf("file round trip changed trace")
	}
}

func TestFromBytesAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		data := make([]byte, rng.Intn(256))
		rng.Read(data)
		tr, ok := FromBytes(data)
		if !ok {
			if len(data) >= geomBytes {
				t.Fatalf("FromBytes rejected %d bytes", len(data))
			}
			continue
		}
		if err := tr.Config.Validate(); err != nil {
			t.Fatalf("FromBytes produced invalid config: %v", err)
		}
		for _, l := range tr.Config.Levels {
			if l.Latency < 1 {
				t.Fatalf("FromBytes produced zero-latency level %q", l.Name)
			}
		}
		for _, r := range tr.Records {
			if r.Size <= 0 {
				t.Fatalf("FromBytes produced record with size %d", r.Size)
			}
		}
		if wantRecs := (len(data) - geomBytes) / recBytes; len(tr.Records) != wantRecs {
			t.Fatalf("FromBytes: %d records from %d bytes, want %d", len(tr.Records), len(data), wantRecs)
		}
	}
}

func TestFromBytesDeterministic(t *testing.T) {
	data := []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 255, 254, 1, 2, 3}
	a, _ := FromBytes(data)
	b, _ := FromBytes(data)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("FromBytes is not deterministic")
	}
}

// hostileRecords are one-record encodings a stranger could upload:
// a size varint of 2^64-1 (Record{Size: -1}), which once wrapped
// negative and panicked the replay, and the 53-byte upload of
// 27,043,761,148,215,941 bytes that a fuzzer found, which replays one
// block at a time for weeks.
func hostileRecords() map[string][]byte {
	enc := func(r Record) []byte { return Trace{Config: sampleTrace().Config, Records: []Record{r}}.Encode() }
	return map[string][]byte{
		"size -1":                 enc(Record{Kind: Load, Addr: 64, Size: -1}),
		"size 27043761148215941":  enc(Record{Kind: Store, Addr: 64, Size: 27_043_761_148_215_941}),
		"size over MaxRecordSize": enc(Record{Kind: Load, Addr: 64, Size: MaxRecordSize + 1}),
		"past the address space":  enc(Record{Kind: Load, Addr: math.MaxInt64 - 4, Size: 8}),
	}
}

func TestDecodeRejectsHostileRecords(t *testing.T) {
	for name, data := range hostileRecords() {
		t.Run(name, func(t *testing.T) {
			if _, err := Decode(data); !errors.Is(err, cclerr.ErrCorruptTrace) {
				t.Errorf("Decode: err = %v, want ErrCorruptTrace", err)
			}
			if _, err := Check(data); !errors.Is(err, cclerr.ErrCorruptTrace) {
				t.Errorf("Check: err = %v, want ErrCorruptTrace", err)
			}
		})
	}
	// The cap itself is allowed, and its work is one access per
	// smallest block.
	tr := sampleTrace()
	tr.Records = []Record{{Kind: Load, Addr: 64, Size: MaxRecordSize}}
	enc, err := Check(tr.Encode())
	if err != nil {
		t.Fatalf("a record of exactly MaxRecordSize: %v", err)
	}
	if want := int64(MaxRecordSize / 16); enc.Work() != want {
		t.Errorf("work %d, want %d", enc.Work(), want)
	}
}
