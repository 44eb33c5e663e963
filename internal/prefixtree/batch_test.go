package prefixtree

import (
	"fmt"
	"math/rand"
	"testing"
)

// checkLookupBatch requires LookupBatch to visit every batch position
// exactly once, in order, with the same leaf as a per-key Lookup: the
// same hit set, leaf identity and visit order.
func checkLookupBatch(t *testing.T, tr *Tree, batch []uint64, label string) {
	t.Helper()
	next := 0
	tr.LookupBatch(batch, func(i int, lf *Leaf) {
		if i != next {
			t.Fatalf("%s: visit %d has index %d", label, next, i)
		}
		next++
		want := tr.Lookup(batch[i])
		if (lf == nil) != (want == nil) {
			t.Fatalf("%s: batch[%d]=%d: batch found=%v scalar found=%v", label, i, batch[i], lf != nil, want != nil)
		}
		if lf != want {
			t.Fatalf("%s: batch[%d]: different leaf than scalar lookup", label, i)
		}
	})
	if next != len(batch) {
		t.Fatalf("%s: visited %d of %d keys", label, next, len(batch))
	}
}

func TestLookupBatchMatchesScalar(t *testing.T) {
	tr := MustNew(Config{PayloadWidth: 1})
	rng := rand.New(rand.NewSource(9))
	var present []uint64
	for i := 0; i < 20000; i++ {
		k := rng.Uint64() % 1_000_000
		tr.Insert(k, []uint64{k * 2})
		present = append(present, k)
	}
	batch := make([]uint64, 0, 4096)
	batch = append(batch, present[:2048]...)
	for i := 0; i < 2048; i++ {
		batch = append(batch, rng.Uint64()) // mostly absent keys
	}
	checkLookupBatch(t, tr, batch, "default")
}

// TestLookupBatchKernelMatchesScalar runs the batch-lookup kernel (the
// level-synchronous job loop behind LookupBatch) against per-key Lookup
// on tree geometries whose fragment arithmetic differs: an uneven last
// level (64%6, 20%8 and 64%5 != 0), narrow and single-bit keyspaces, the
// widest buckets, and a multi-column payload; each with mixed, empty,
// all-duplicate and all-miss batches.
func TestLookupBatchKernelMatchesScalar(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{PrefixLen: 6},
		{KeyBits: 20, PrefixLen: 8},
		{KeyBits: 32, PrefixLen: 16},
		{KeyBits: 1, PrefixLen: 1},
		{PayloadWidth: 2, PrefixLen: 5},
	} {
		tr := MustNew(cfg)
		rng := rand.New(rand.NewSource(int64(cfg.PrefixLen)*64 + int64(cfg.KeyBits)))
		keyMask := ^uint64(0)
		if kb := cfg.KeyBits; kb != 0 && kb < 64 {
			keyMask = 1<<kb - 1
		}
		present := make([]uint64, 300)
		for i := range present {
			present[i] = rng.Uint64() & keyMask
		}
		var rows [][]uint64
		if cfg.PayloadWidth > 0 {
			rows = make([][]uint64, len(present))
			for i := range rows {
				rows[i] = make([]uint64, cfg.PayloadWidth)
			}
		}
		tr.InsertBatch(present, rows)

		batch := make([]uint64, 0, 700)
		batch = append(batch, present...)      // hits
		batch = append(batch, present[:50]...) // duplicates
		for i := 0; i < 300; i++ {             // mostly misses
			batch = append(batch, rng.Uint64()&keyMask)
		}
		label := fmt.Sprintf("%+v", cfg)
		checkLookupBatch(t, tr, batch, label+" mixed")
		checkLookupBatch(t, tr, batch[:0], label+" empty")
		checkLookupBatch(t, tr, batch[len(present):len(present)+50], label+" all-dup")
		miss := make([]uint64, 64)
		for i := range miss {
			miss[i] = rng.Uint64() & keyMask
		}
		checkLookupBatch(t, tr, miss, label+" all-miss-ish")
	}
}

// FuzzLookupBatch fuzzes the batched descent against per-key Lookup:
// random key widths (including full 64-bit keys), random prefix lengths,
// empty / all-miss / duplicate-heavy batches. Any divergence in hit set,
// leaf identity, or visit order is a bug.
func FuzzLookupBatch(f *testing.F) {
	f.Add(int64(1), uint16(512), uint8(64), uint8(4), uint8(50))
	f.Add(int64(2), uint16(0), uint8(64), uint8(4), uint8(0))    // empty batch
	f.Add(int64(3), uint16(100), uint8(64), uint8(6), uint8(0))  // all-miss
	f.Add(int64(4), uint16(64), uint8(20), uint8(8), uint8(100)) // all-hit, narrow keys
	f.Add(int64(5), uint16(33), uint8(32), uint8(16), uint8(80)) // widest buckets
	f.Add(int64(6), uint16(17), uint8(1), uint8(1), uint8(100))  // single-bit keyspace
	f.Fuzz(func(t *testing.T, seed int64, n uint16, keyBits, prefixLen, hitPct uint8) {
		cfg := Config{KeyBits: uint(keyBits%64) + 1, PrefixLen: uint(prefixLen%16) + 1}
		tr := MustNew(cfg)
		rng := rand.New(rand.NewSource(seed))
		keyMask := ^uint64(0)
		if cfg.KeyBits < 64 {
			keyMask = 1<<cfg.KeyBits - 1
		}
		present := make([]uint64, 128)
		for i := range present {
			present[i] = rng.Uint64() & keyMask
		}
		tr.InsertBatch(present, nil)
		batch := make([]uint64, int(n)%1024)
		for i := range batch {
			if uint8(rng.Intn(100)) < hitPct {
				batch[i] = present[rng.Intn(len(present))]
			} else {
				batch[i] = rng.Uint64() & keyMask
			}
		}
		checkLookupBatch(t, tr, batch, "fuzz")
	})
}

func TestLookupBatchEmpty(t *testing.T) {
	tr := MustNew(Config{})
	tr.LookupBatch(nil, func(int, *Leaf) { t.Error("visit called") })
}

func TestInsertBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	keys := make([]uint64, 10000)
	rows := make([][]uint64, len(keys))
	for i := range keys {
		keys[i] = rng.Uint64() % 50_000 // plenty of duplicates and collisions
		rows[i] = []uint64{uint64(i)}
	}
	scalar := MustNew(Config{PayloadWidth: 1})
	batched := MustNew(Config{PayloadWidth: 1})
	for i, k := range keys {
		scalar.Insert(k, rows[i])
	}
	for off := 0; off < len(keys); off += 512 {
		end := min(off+512, len(keys))
		batched.InsertBatch(keys[off:end], rows[off:end])
	}
	if scalar.Keys() != batched.Keys() || scalar.Rows() != batched.Rows() {
		t.Fatalf("keys/rows: scalar %d/%d batched %d/%d",
			scalar.Keys(), scalar.Rows(), batched.Keys(), batched.Rows())
	}
	scalar.Iterate(func(lf *Leaf) bool {
		blf := batched.Lookup(lf.Key)
		if blf == nil {
			t.Fatalf("key %d missing from batched tree", lf.Key)
		}
		if blf.Vals.Len() != lf.Vals.Len() {
			t.Fatalf("key %d row count differs: %d vs %d", lf.Key, lf.Vals.Len(), blf.Vals.Len())
		}
		want := lf.Vals.Rows()
		got := blf.Vals.Rows()
		for i := range want {
			if want[i][0] != got[i][0] {
				t.Fatalf("key %d row %d differs: %v vs %v", lf.Key, i, want[i], got[i])
			}
		}
		return true
	})
}

func TestInsertBatchWithFold(t *testing.T) {
	tr := MustNew(Config{
		PayloadWidth: 1,
		Fold:         func(dst, src []uint64) { dst[0] += src[0] },
	})
	keys := make([]uint64, 1000)
	rows := make([][]uint64, len(keys))
	for i := range keys {
		keys[i] = uint64(i % 7)
		rows[i] = []uint64{1}
	}
	tr.InsertBatch(keys, rows)
	if tr.Keys() != 7 {
		t.Fatalf("Keys = %d, want 7", tr.Keys())
	}
	var total uint64
	tr.Iterate(func(lf *Leaf) bool { total += lf.Vals.First()[0]; return true })
	if total != 1000 {
		t.Fatalf("total count = %d, want 1000", total)
	}
}

func TestInsertBatchLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on length mismatch")
		}
	}()
	MustNew(Config{PayloadWidth: 1}).InsertBatch([]uint64{1, 2}, [][]uint64{{1}})
}
