package trace

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"ccl/internal/cclerr"
)

// FuzzTraceRoundTrip checks the codec's two safety properties on
// arbitrary input: (1) Decode never panics and either rejects the
// input with an error wrapping cclerr.ErrCorruptTrace or returns a
// validated trace; (2) every trace derived via FromBytes survives
// Encode/Decode byte- and value-identically. The checked-in corpus
// holds encoded captures with bytes flipped (testdata/fuzz/
// FuzzTraceRoundTrip/corrupt-*); oracle's
// TestDecodableTraceCorpusReplaysClean replays the ones that still
// decode.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add(sampleTrace().Encode())
	f.Add(overflowTrace())
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 255, 254, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := Decode(data)
		if err != nil && !errors.Is(err, cclerr.ErrCorruptTrace) {
			t.Fatalf("Decode rejected input with an untyped error: %v", err)
		}
		if err == nil {
			if verr := dec.Config.Validate(); verr != nil {
				t.Fatalf("Decode accepted invalid config: %v", verr)
			}
			re := dec.Encode()
			dec2, err := Decode(re)
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if !reflect.DeepEqual(dec, dec2) {
				t.Fatal("decode/encode/decode not a fixpoint")
			}
		}
		tr, ok := FromBytes(data)
		if !ok {
			return
		}
		enc := tr.Encode()
		dec, err = Decode(enc)
		if err != nil {
			t.Fatalf("decoding FromBytes trace: %v", err)
		}
		if !reflect.DeepEqual(normalize(tr), normalize(dec)) {
			t.Fatalf("round trip changed trace:\ngot  %+v\nwant %+v", dec, tr)
		}
		if !bytes.Equal(enc, dec.Encode()) {
			t.Fatal("re-encoding is not byte-identical")
		}
	})
}

// normalize maps nil and empty record slices to the same value:
// the codec does not distinguish them.
func normalize(t Trace) Trace {
	if len(t.Records) == 0 {
		t.Records = nil
	}
	return t
}

// FuzzUploadReplay checks the upload path against the materializing
// one on arbitrary bytes: Check and Decode accept exactly the same
// inputs, every rejection wraps cclerr.ErrCorruptTrace, and for an
// accepted input the streaming replay's cycles, geometry and every
// level's statistics equal Replay(Decode(data))'s, while the work
// Check counted is the per-record block sum and the number of
// single-block accesses the replay made. The corpus holds
// FuzzTraceRoundTrip's, byte-flipped captures included.
func FuzzUploadReplay(f *testing.F) {
	f.Add(sampleTrace().Encode())
	f.Add(overflowTrace())
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 255, 254, 1, 2, 3})
	for _, data := range hostileRecords() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		enc, cerr := Check(data)
		tr, derr := Decode(data)
		if (cerr == nil) != (derr == nil) {
			t.Fatalf("Check and Decode disagree: Check %v, Decode %v", cerr, derr)
		}
		for _, err := range []error{cerr, derr} {
			if err != nil && !errors.Is(err, cclerr.ErrCorruptTrace) {
				t.Fatalf("rejection with an untyped error: %v", err)
			}
		}
		if derr != nil {
			return
		}
		if enc.Len() != len(tr.Records) {
			t.Fatalf("Check counted %d records, Decode %d", enc.Len(), len(tr.Records))
		}
		want, wantCycles, err := Replay(tr)
		if err != nil {
			t.Fatal(err)
		}
		got, gotCycles := enc.Replay()
		if gotCycles != wantCycles {
			t.Fatalf("streaming replay charged %d cycles, Replay(Decode) %d", gotCycles, wantCycles)
		}
		if !reflect.DeepEqual(got.Config(), want.Config()) {
			t.Fatalf("geometry differs:\nstreaming %+v\ndecoded   %+v", got.Config(), want.Config())
		}
		if !reflect.DeepEqual(got.Stats(), want.Stats()) {
			t.Fatalf("stats differ:\nstreaming %+v\ndecoded   %+v", got.Stats(), want.Stats())
		}
		block := tr.Config.Levels[0].BlockSize
		for _, l := range tr.Config.Levels {
			block = min(block, l.BlockSize)
		}
		var sum int64
		for _, r := range tr.Records {
			sum += (int64(r.Addr)+r.Size-1)/block - int64(r.Addr)/block + 1
		}
		if enc.Work() != sum {
			t.Fatalf("work %d, per-record block sum %d", enc.Work(), sum)
		}
		if acc := got.Stats().Levels[0].Accesses; enc.Work() != acc {
			t.Fatalf("work %d, but the replay made %d single-block accesses", enc.Work(), acc)
		}
	})
}
