package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"qppt/internal/duplist"
)

// spillEntry is one key of an index as a scan visits it.
type spillEntry struct {
	Key  uint64
	N    int
	Rows [][]uint64
}

// collectEntries records every key a scan visits, with its rows.
func collectEntries(scan func(visit func(uint64, *duplist.List) bool) bool) []spillEntry {
	var out []spillEntry
	scan(func(k uint64, vals *duplist.List) bool {
		e := spillEntry{Key: k, N: vals.Len()}
		if vals.Width() > 0 {
			e.Rows = vals.Rows()
		}
		out = append(out, e)
		return true
	})
	return out
}

// spillFuzzKeys generates n keys of the given width: mostly ascending
// runs (so leaf chunks cover distinct key ranges), some scattered keys,
// duplicates, and the key-space extremes. Narrow keys scatter within
// 2^26 of the run base, which bounds the KISS root pages touched.
func spillFuzzKeys(rng *rand.Rand, n int, keyBits uint) []uint64 {
	mask := keySpaceMax(keyBits)
	scatter := mask
	if keyBits <= 32 {
		scatter = 1<<26 - 1
	}
	base := rng.Uint64() & mask
	k := base
	keys := make([]uint64, n)
	for i := range keys {
		switch r := rng.Intn(64); {
		case r == 0:
			keys[i] = 0
		case r == 1:
			keys[i] = mask
		case r < 8:
			keys[i] = (base + rng.Uint64()&scatter) & mask
		case r < 16 && i > 0:
			keys[i] = keys[rng.Intn(i)]
		default:
			k = (k + 1 + uint64(rng.Intn(64))) & mask
			keys[i] = k
		}
	}
	return keys
}

// spillFuzzRange picks a key range: around a stored key, narrow or wide,
// sometimes anchored at 0 or at the key-space maximum.
func spillFuzzRange(rng *rand.Rand, want []spillEntry, mask uint64) (uint64, uint64) {
	lo := rng.Uint64() & mask
	if len(want) > 0 && rng.Intn(4) != 0 {
		lo = want[rng.Intn(len(want))].Key
	}
	span := uint64(rng.Intn(1 << uint(rng.Intn(20))))
	switch rng.Intn(8) {
	case 0:
		lo = 0
	case 1:
		return lo, mask
	}
	return lo, lo + min(span, mask-lo)
}

// FuzzSpillRoundTrip drives the one restore path, ThawRange, over both
// tree kinds (KISS-Tree at 32-bit keys, prefix tree at 64-bit keys, row
// widths 0 and 2) and over a sharded merge output. Each case snapshots
// and releases the index, checks that a truncated stream fails and
// leaves the index frozen, then applies random additive range thaws from
// the intact stream: every range thawed so far must scan exactly as
// before the freeze. A final full-span thaw must complete the index and
// reproduce the whole scan.
//
// Arguments: seed drives keys, rows and ranges; kind%4 picks KISS-Tree,
// prefix tree, sharded KISS, sharded prefix tree; width%2 picks row
// width 0 or 2; n sizes the key set; steps%6+1 is the number of range
// thaws; cut places the truncation. The seed corpus in
// testdata/fuzz/FuzzSpillRoundTrip covers each kind and width, an empty
// index, and earlier failures.
func FuzzSpillRoundTrip(f *testing.F) {
	ec := &ExecContext{opts: Options{Workers: 2}}
	f.Fuzz(func(t *testing.T, seed int64, kind, width uint8, n uint16, steps uint8, cut uint16) {
		rng := rand.New(rand.NewSource(seed))
		keyBits := []uint{32, 64}[kind%2]
		sharded := kind%4 >= 2
		var cols []string
		if width%2 == 1 {
			cols = []string{"a", "b"}
		}
		nKeys := int(n) % 30000
		if sharded {
			nKeys = max(nKeys, parallelMergeMinKeys)
		}
		keys := spillFuzzKeys(rng, nKeys, keyBits)
		row := func(i int) []uint64 {
			if cols == nil {
				return nil
			}
			return []uint64{keys[i] ^ uint64(i), uint64(i)}
		}

		spec := &OutputSpec{Name: "fz", Key: SimpleKey("k", keyBits), Cols: cols}
		var idx Index
		if sharded {
			var partials []*IndexedTable
			for p := 0; p < 3; p++ {
				part := newOutputIndex(spec, nil)
				for i := p; i < len(keys); i += 3 {
					part.Insert(keys[i], row(i))
				}
				partials = append(partials, NewIndexedTable(spec.Name, spec.Key, spec.Cols, part))
			}
			merged, err := mergePartialsParallel(ec, spec, partials)
			if err != nil {
				t.Fatal(err)
			}
			idx = merged.Idx
		} else {
			idx = newOutputIndex(spec, nil)
			for i := range keys {
				idx.Insert(keys[i], row(i))
			}
		}
		want := collectEntries(idx.Iterate)
		wantRange := func(lo, hi uint64) []spillEntry {
			a := sort.Search(len(want), func(i int) bool { return want[i].Key >= lo })
			b := sort.Search(len(want), func(i int) bool { return want[i].Key > hi })
			return want[a:b]
		}

		fz := freezerOf(idx)
		if fz == nil {
			t.Fatalf("%T not spillable", idx)
		}
		var buf bytes.Buffer
		if err := fz.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		fz.Release()
		snap := buf.Bytes()
		if !fz.Frozen() {
			t.Fatal("released index not frozen")
		}

		mask := keySpaceMax(keyBits)
		lo, hi := spillFuzzRange(rng, want, mask)
		if _, _, err := fz.ThawRange(bytes.NewReader(snap[:int(cut)%len(snap)]), lo, hi); err == nil {
			t.Fatalf("ThawRange of a truncated stream [%d,%d] succeeded", lo, hi)
		}
		if !fz.Frozen() {
			t.Fatal("failed ThawRange left the index resident")
		}

		type ival struct{ lo, hi uint64 }
		var thawed []ival
		for s := 0; s <= int(steps%6); s++ {
			lo, hi := spillFuzzRange(rng, want, mask)
			if _, _, err := fz.ThawRange(bytes.NewReader(snap), lo, hi); err != nil {
				t.Fatalf("ThawRange [%d,%d]: %v", lo, hi, err)
			}
			if fz.Frozen() {
				t.Fatalf("ThawRange [%d,%d] left the index frozen", lo, hi)
			}
			thawed = append(thawed, ival{lo, hi})
			for _, iv := range thawed {
				got := collectEntries(func(v func(uint64, *duplist.List) bool) bool { return idx.Range(iv.lo, iv.hi, v) })
				if w := wantRange(iv.lo, iv.hi); !reflect.DeepEqual(got, w) && len(got)+len(w) > 0 {
					t.Fatalf("after %d thaws, Range [%d,%d] visits %d keys, want %d", s+1, iv.lo, iv.hi, len(got), len(w))
				}
			}
		}

		_, full, err := fz.ThawRange(bytes.NewReader(snap), 0, ^uint64(0))
		if err != nil {
			t.Fatalf("full-span ThawRange: %v", err)
		}
		if !full || fz.Frozen() {
			t.Fatalf("full-span ThawRange left the index incomplete (full=%v)", full)
		}
		if got := collectEntries(idx.Iterate); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("restored index iterates %d keys, want %d", len(got), len(want))
		}
	})
}
