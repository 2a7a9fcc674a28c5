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
