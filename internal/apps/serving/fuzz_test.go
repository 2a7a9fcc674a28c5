package serving

import (
	"errors"
	"sort"
	"testing"

	"ccl/internal/cclerr"
	"ccl/internal/machine"
)

// FuzzServingOps drives all three serving structures — sharing one
// machine, as a serving process would — from raw bytes. The first
// byte picks the layout/placement variants, then each 3-byte group
// becomes one op. The replay must never panic, every failure must be
// a typed cclerr error, results must match the reference models (the
// 8-slot KV takes 7 keys and refuses the next new one with
// ErrOutOfMemory), and the structural invariants must hold at every
// checkpoint.
func FuzzServingOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x05, 0x00, 0x00, 0x05, 0x00})
	// Every op kind, on the colored-KV + split-LRU variant.
	f.Add([]byte{0x44,
		0x01, 0x05, 0x10, // kv put
		0x00, 0x05, 0x00, // kv get
		0x02, 0x06, 0x11, // kv put
		0x04, 0x07, 0x22, // lru put
		0x03, 0x07, 0x00, // lru get
		0x05, 0x30, 0x31, // pq push
		0x06, 0x00, 0x00, // pq pop
		0x07, 0x00, 0x00, // invariants
	})
	// Fill-heavy stream: drives eviction and the full-table and
	// full-queue guards.
	f.Add([]byte{0x13,
		0x01, 0x01, 0x01, 0x01, 0x02, 0x02, 0x01, 0x03, 0x03, 0x01, 0x04, 0x04,
		0x01, 0x05, 0x05, 0x01, 0x06, 0x06, 0x01, 0x07, 0x07, 0x01, 0x08, 0x08,
		0x04, 0x01, 0x01, 0x04, 0x02, 0x02, 0x04, 0x03, 0x03, 0x04, 0x04, 0x04,
		0x04, 0x05, 0x05, 0x04, 0x06, 0x06, 0x05, 0x10, 0x01, 0x05, 0x11, 0x02,
		0x05, 0x12, 0x03, 0x07, 0x00, 0x00,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sel := int(data[0])
		kvCfg := kvVariants()[sel%5]
		kvCfg.Slots = 8
		lruCfg := lruVariants()[(sel/5)%4]
		lruCfg.Capacity = 4
		lruCfg.IndexSlots = 16
		arity := []int64{2, 4, 8, 16}[(sel/20)%4]

		m := machine.NewScaled(16)
		kv, err := NewKV(m, kvCfg)
		if err != nil {
			t.Fatalf("NewKV: %v", err)
		}
		lru, err := NewLRU(m, lruCfg)
		if err != nil {
			t.Fatalf("NewLRU: %v", err)
		}
		pq, err := NewPQueue(m, PQConfig{Arity: arity, Cap: 16})
		if err != nil {
			t.Fatalf("NewPQueue: %v", err)
		}

		kvModel := map[uint32]int64{}
		lruModel := newLRUModel(4)
		var pqModel []int64 // priorities, sorted

		typed := func(op string, err error) {
			t.Helper()
			if cclerr.Class(err) == "" {
				t.Fatalf("%s returned an unclassified error: %v", op, err)
			}
		}
		for off := 1; off+3 <= len(data); off += 3 {
			op, b1, b2 := data[off], data[off+1], data[off+2]
			key := uint32(b1%32) + 1
			val := int64(b1)<<8 | int64(b2)
			switch op % 8 {
			case 0:
				got, ok := kv.Get(key)
				want, wok := kvModel[key]
				if ok != wok || (ok && got != want) {
					t.Fatalf("kv.Get(%d) = (%d, %v), model (%d, %v)", key, got, ok, want, wok)
				}
			case 1, 2:
				_, resident := kvModel[key]
				err := kv.Put(key, val)
				if !resident && len(kvModel) == int(kvCfg.Slots)-1 {
					if !errors.Is(err, cclerr.ErrOutOfMemory) {
						t.Fatalf("kv.Put(%d) into a full table: %v, want ErrOutOfMemory", key, err)
					}
					break
				}
				if err != nil {
					typed("kv.Put", err)
					break
				}
				kvModel[key] = val
			case 3:
				got, ok := lru.Get(key)
				want, wok := lruModel.get(key)
				if ok != wok || (ok && got != want) {
					t.Fatalf("lru.Get(%d) = (%d, %v), model (%d, %v)", key, got, ok, want, wok)
				}
			case 4:
				if err := lru.Put(key, val); err != nil {
					typed("lru.Put", err)
					break
				}
				lruModel.put(key, val)
			case 5:
				err := pq.Push(int64(b1), int64(b2))
				if len(pqModel) >= 16 {
					if !errors.Is(err, cclerr.ErrOutOfMemory) {
						t.Fatalf("pq.Push on full queue: %v, want ErrOutOfMemory", err)
					}
					break
				}
				if err != nil {
					typed("pq.Push", err)
					break
				}
				pqModel = append(pqModel, int64(b1))
				sort.Slice(pqModel, func(a, b int) bool { return pqModel[a] < pqModel[b] })
			case 6:
				pri, _, ok := pq.Pop()
				if len(pqModel) == 0 {
					if ok {
						t.Fatalf("pq.Pop on empty queue returned %d", pri)
					}
					break
				}
				if !ok || pri != pqModel[0] {
					t.Fatalf("pq.Pop = (%d, %v), model min %d", pri, ok, pqModel[0])
				}
				pqModel = pqModel[1:]
			case 7:
				for _, err := range []error{kv.CheckInvariants(), lru.CheckInvariants(), pq.CheckInvariants()} {
					if err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if kv.Len() != int64(len(kvModel)) || lru.Len() != int64(len(lruModel.order)) || pq.Len() != int64(len(pqModel)) {
			t.Fatalf("final sizes (%d, %d, %d), models (%d, %d, %d)",
				kv.Len(), lru.Len(), pq.Len(), len(kvModel), len(lruModel.order), len(pqModel))
		}
		for _, err := range []error{kv.CheckInvariants(), lru.CheckInvariants(), pq.CheckInvariants()} {
			if err != nil {
				t.Fatal(err)
			}
		}
	})
}

// FuzzZipfGen checks the generator over its whole parameter surface:
// construction either fails with a typed error or yields a generator
// whose draws are in [1, n] and equal, draw for draw, to the reference
// generator's (zipf_test.go), which builds its own table.
func FuzzZipfGen(f *testing.F) {
	f.Add(int64(1), uint16(990), uint32(1000))
	f.Add(int64(-7), uint16(0), uint32(1))
	f.Add(int64(42), uint16(65535), uint32(0))
	f.Fuzz(func(t *testing.T, seed int64, sBits uint16, n uint32) {
		s := float64(sBits) / 1000 // 0 .. 65.535, straddling the max-exponent bound
		z, err := NewZipf(seed, s, int64(n))
		if err != nil {
			if !errors.Is(err, cclerr.ErrInvalidArg) {
				t.Fatalf("NewZipf(%d, %v, %d): error %v, want ErrInvalidArg", seed, s, n, err)
			}
			return
		}
		ref := newRefZipf(seed, s, int64(n))
		for i := 0; i < 200; i++ {
			k, want := z.Next(), ref.Next()
			if k != want {
				t.Fatalf("draw %d: %d, reference %d", i, k, want)
			}
			if k < 1 || k > n {
				t.Fatalf("draw %d: key %d outside [1, %d]", i, k, n)
			}
		}
	})
}
