package trace

import (
	"bytes"
	"strings"
	"testing"

	"ccl/internal/cache"
)

func v2Config() cache.Config {
	return cache.Config{
		Levels:     []cache.LevelConfig{{Name: "L1", Size: 1 << 10, Assoc: 1, BlockSize: 16, Latency: 1}},
		MemLatency: 20,
	}
}

func TestV2RoundTripWithCores(t *testing.T) {
	tr := Trace{
		Config: v2Config(),
		Records: []Record{
			{Kind: Load, Addr: 0x100, Size: 8, Core: 0},
			{Kind: Store, Addr: 0x140, Size: 8, Core: 3},
			{Kind: Load, Addr: 0x100, Size: 4, Core: 63},
		},
	}
	enc := tr.Encode()
	if !bytes.HasPrefix(enc, magicV2) {
		t.Fatal("multicore trace not encoded as version 2")
	}
	if e, err := Check(enc); err != nil || !e.Multicore() {
		t.Fatalf("Check: multicore %v, err %v; want a multicore encoding", e.Multicore(), err)
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(tr.Records) {
		t.Fatalf("decoded %d records, want %d", len(got.Records), len(tr.Records))
	}
	for i, r := range got.Records {
		if r != tr.Records[i] {
			t.Fatalf("record %d: %+v != %+v", i, r, tr.Records[i])
		}
	}
}

// A trace whose cores are all zero must encode byte-identically to
// the version-1 format: old fixtures, goldens, and fuzz corpora see
// no change from the multicore extension.
func TestAllZeroCoresEncodesV1(t *testing.T) {
	tr := Trace{
		Config: v2Config(),
		Records: []Record{
			{Kind: Load, Addr: 0x100, Size: 8},
			{Kind: Store, Addr: 0x110, Size: 8},
		},
	}
	enc := tr.Encode()
	if !bytes.HasPrefix(enc, magic) {
		t.Fatal("zero-core trace not encoded as version 1")
	}
	if e, err := Check(enc); err != nil || e.Multicore() {
		t.Fatalf("Check: multicore %v, err %v; want a version-1 encoding", e.Multicore(), err)
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got.Records {
		if r.Core != 0 {
			t.Fatalf("v1 decode produced core %d", r.Core)
		}
	}
}

func TestV2RejectsImplausibleCore(t *testing.T) {
	tr := Trace{
		Config:  v2Config(),
		Records: []Record{{Kind: Load, Addr: 0x100, Size: 8, Core: maxCores}},
	}
	if _, err := Decode(tr.Encode()); err == nil {
		t.Fatal("core >= maxCores decoded without error")
	}
}

func TestRecordStringCores(t *testing.T) {
	r := Record{Kind: Load, Addr: 0x10, Size: 8}
	if s := r.String(); strings.HasPrefix(s, "c0") {
		t.Fatalf("core-0 record grew a core prefix: %q", s)
	}
	r.Core = 2
	if s := r.String(); !strings.HasPrefix(s, "c2 ") {
		t.Fatalf("core-2 record lacks core prefix: %q", s)
	}
}
