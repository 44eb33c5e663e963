package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"runtime"
	"testing"
	"testing/quick"

	"qppt/internal/duplist"
)

func TestPartitionBounds(t *testing.T) {
	// Partitions must be disjoint, cover [lo, hi] exactly, and differ in
	// size by at most one key (so a span of fewer keys than parts gets
	// one key per non-empty chunk).
	f := func(lo, hi uint64, parts8 uint8) bool {
		if lo > hi {
			lo, hi = hi, lo
		}
		parts := int(parts8%7) + 1
		var next uint64 = lo
		covered := false
		var minSize, maxSize uint64 = ^uint64(0), 0
		empty := 0
		for p := 0; p < parts; p++ {
			pLo, pHi, ok := partitionBounds(lo, hi, p, parts)
			if !ok {
				empty++
				continue
			}
			if pLo != next {
				return false // gap or overlap
			}
			if pHi < pLo {
				return false
			}
			if pHi == hi {
				covered = true
			}
			next = pHi + 1
			minSize, maxSize = min(minSize, pHi-pLo), max(maxSize, pHi-pLo)
		}
		if span := hi - lo + 1; span != 0 && span < uint64(parts) {
			return covered && uint64(empty) == uint64(parts)-span && maxSize == 0
		}
		return covered && empty == 0 && maxSize-minSize <= 1
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(61))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
	// Small spans, where random 64-bit bounds never land: every span from
	// one key to a few times parts.
	for parts := 1; parts <= 7; parts++ {
		for span := uint64(1); span <= uint64(3*parts+2); span++ {
			if !f(100, 100+span-1, uint8(parts-1)) {
				t.Fatalf("span %d into %d parts: uneven or not a disjoint cover", span, parts)
			}
		}
	}
	// A span between parts and 2·parts keys spreads its remainder: 10 keys
	// into 7 chunks are 2,2,2,1,1,1,1 — not six 1s and a 4.
	var sizes []uint64
	for p := 0; p < 7; p++ {
		pLo, pHi, _ := partitionBounds(0, 9, p, 7)
		sizes = append(sizes, pHi-pLo+1)
	}
	if want := []uint64{2, 2, 2, 1, 1, 1, 1}; !reflect.DeepEqual(sizes, want) {
		t.Fatalf("10 keys into 7 chunks: sizes %v, want %v", sizes, want)
	}
	// Full key space does not overflow.
	seen := uint64(0)
	for p := 0; p < 4; p++ {
		lo, hi, ok := partitionBounds(0, ^uint64(0), p, 4)
		if !ok {
			t.Fatalf("full-space partition %d missing", p)
		}
		seen += hi - lo + 1
	}
	if seen != 0 { // 2^64 wraps to 0
		t.Fatalf("full-space partitions cover %d keys too few/many", seen)
	}
}

func TestIntersectPred(t *testing.T) {
	pred := KeyPred{{Lo: 10, Hi: 20}, {Lo: 30, Hi: 40}}
	got := intersectPred(pred, 15, 35)
	want := KeyPred{{Lo: 15, Hi: 20}, {Lo: 30, Hi: 35}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("intersect = %v, want %v", got, want)
	}
	if got := intersectPred(pred, 21, 29); got == nil || len(got) != 0 {
		t.Fatalf("disjoint intersect = %#v, want empty non-nil", got)
	}
	if got := intersectPred(nil, 5, 9); !reflect.DeepEqual(got, KeyPred{{Lo: 5, Hi: 9}}) {
		t.Fatalf("nil pred intersect = %v", got)
	}
}

// TestSyncScanMorselsCoverSyncScan: the union over all key-range morsels
// must visit exactly the pairs the unpartitioned scan visits, for all
// index kinds — the property the Join operator's morsel split relies on.
func TestSyncScanMorselsCoverSyncScan(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	configs := []struct {
		name string
		a, b IndexConfig
	}{
		{"kiss-kiss", IndexConfig{KeyBits: 20}, IndexConfig{KeyBits: 20}},
		{"pt-pt", IndexConfig{KeyBits: 40}, IndexConfig{KeyBits: 40}},
		{"mixed", IndexConfig{KeyBits: 20}, IndexConfig{KeyBits: 20, ForcePrefixTree: true}},
	}
	for _, cfg := range configs {
		a, b := NewIndex(cfg.a), NewIndex(cfg.b)
		for i := 0; i < 20000; i++ {
			a.Insert(uint64(rng.Intn(50000)), nil)
			b.Insert(uint64(rng.Intn(50000)), nil)
		}
		want := map[uint64]bool{}
		SyncScan(a, b, func(k uint64, _, _ *duplist.List) bool {
			want[k] = true
			return true
		})
		lo, hi, okB := syncScanBounds(a, b)
		if !okB {
			t.Fatalf("%s: no scan bounds", cfg.name)
		}
		for _, parts := range []int{1, 2, 3, 7} {
			got := map[uint64]bool{}
			for p := 0; p < parts; p++ {
				pLo, pHi, ok := partitionBounds(lo, hi, p, parts)
				if !ok {
					continue
				}
				syncScanKeyRange(a, b, pLo, pHi, func(k uint64, _, _ *duplist.List) bool {
					if got[k] {
						t.Fatalf("%s parts=%d: key %d visited twice", cfg.name, parts, k)
					}
					got[k] = true
					return true
				})
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s parts=%d: %d keys, want %d", cfg.name, parts, len(got), len(want))
			}
		}
	}
}

// TestWorkersPreserveResults: intra-operator parallelism must never change
// operator output.
func TestWorkersPreserveResults(t *testing.T) {
	f := buildFixture(77)
	ref, _, err := starPlan(f, 4).Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 8} {
		got, stats, err := starPlan(f, 4).Run(Options{Workers: w, CollectStats: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resultAsMap(t, Extract(got)), resultAsMap(t, Extract(ref))) {
			t.Fatalf("workers=%d changed the result", w)
		}
		if stats.Ops[len(stats.Ops)-1].TuplesIndexed == 0 {
			t.Fatalf("workers=%d: no stats accumulated", w)
		}
	}
}

func TestWorkersWithSelectJoin(t *testing.T) {
	f := buildFixture(78)
	sj := func() *SelectJoin {
		return &SelectJoin{
			SelInput:      &Base{Table: f.prodByBrand},
			Pred:          Between(0, nBrand-1),
			Main:          &Base{Table: f.factByProd},
			ProbeMainWith: Ref{Input: 0, Attr: "prodkey"},
			Out: OutputSpec{
				Name:     "Γ",
				Key:      SimpleKey("region?", 16), // keyed on custkey actually
				KeyRefs:  []Ref{{Input: 1, Attr: "custkey"}},
				Cols:     []string{"sum_qty"},
				ColExprs: []RowExpr{Attr(1, "qty")},
				Fold:     FoldSum(0),
			},
		}
	}
	ref, _, err := (&Plan{Root: sj()}).Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := (&Plan{Root: sj()}).Run(Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resultAsMap(t, Extract(ref)), resultAsMap(t, Extract(par))) {
		t.Fatal("workers changed select-join result")
	}
}

func TestWorkersOnNonAggregatingSelection(t *testing.T) {
	// Plain (non-folding) outputs must carry the same row multiset.
	f := buildFixture(79)
	sel := func() *Selection {
		return &Selection{
			Input: &Base{Table: f.factByProd},
			Pred:  Between(0, nProd/2),
			Out: OutputSpec{
				Name:     "σ",
				Key:      SimpleKey("custkey", 16),
				KeyRefs:  []Ref{{Input: 0, Attr: "custkey"}},
				Cols:     []string{"qty"},
				ColExprs: []RowExpr{Attr(0, "qty")},
			},
		}
	}
	ref, _, err := (&Plan{Root: sel()}).Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := (&Plan{Root: sel()}).Run(Options{Workers: 5})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Rows() != par.Rows() || ref.Keys() != par.Keys() {
		t.Fatalf("rows/keys: %d/%d vs %d/%d", ref.Rows(), ref.Keys(), par.Rows(), par.Keys())
	}
	count := func(t2 *IndexedTable) map[[2]uint64]int {
		m := map[[2]uint64]int{}
		t2.Idx.Iterate(func(k uint64, vals *duplist.List) bool {
			vals.Scan(func(row []uint64) bool {
				m[[2]uint64{k, row[0]}]++
				return true
			})
			return true
		})
		return m
	}
	if !reflect.DeepEqual(count(ref), count(par)) {
		t.Fatal("row multisets differ")
	}
}

// TestMorselsBalanceSkewedKeys: a deliberately skewed key distribution —
// nearly all rows crammed into the top slice of the key space, so a static
// Workers-way split would hand one partition almost everything — must
// still produce results identical to serial execution, with the morsel
// fan-out engaged (more morsels than workers).
func TestMorselsBalanceSkewedKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	idx := NewIndex(IndexConfig{KeyBits: 32, PayloadWidth: 1})
	// 3% of rows spread over the key space, 97% in the top 1/64th.
	for i := 0; i < 40000; i++ {
		var k uint64
		if i%32 == 0 {
			k = uint64(rng.Intn(1 << 32))
		} else {
			k = uint64(63<<26) + uint64(rng.Intn(1<<26))
		}
		idx.Insert(k, []uint64{uint64(rng.Intn(100))})
	}
	in := NewIndexedTable("skewed", SimpleKey("k", 32), []string{"v"}, idx)
	sel := func() *Selection {
		return &Selection{
			Input: &Base{Table: in},
			Out: OutputSpec{
				Name:     "Γ",
				Key:      SimpleKey("g", 8),
				KeyRefs:  []Ref{{Input: 0, Attr: "v"}},
				Cols:     []string{"n"},
				ColExprs: []RowExpr{Computed(func([]uint64) uint64 { return 1 })},
				Fold:     FoldSum(0),
			},
		}
	}
	ref, _, err := (&Plan{Root: sel()}).Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := (&Plan{Root: sel()}).Run(Options{Workers: 4, CollectStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resultAsMap(t, Extract(ref)), resultAsMap(t, Extract(got))) {
		t.Fatal("skewed morsel execution changed the result")
	}
	op := stats.Ops[len(stats.Ops)-1]
	if op.Morsels <= op.Workers {
		t.Fatalf("morsel fan-out did not engage: %d morsels for %d workers", op.Morsels, op.Workers)
	}
	if stats.Workers != 4 {
		t.Fatalf("plan stats report %d workers, want 4", stats.Workers)
	}
}

// TestMergePartialsParallelMatchesSerial: the partition-wise parallel
// merge must produce exactly the table the sequential re-insert produces,
// for folding and plain outputs alike.
func TestMergePartialsParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for _, folding := range []bool{true, false} {
		spec := &OutputSpec{
			Name: "m",
			Key:  SimpleKey("k", 40), // prefix tree
			Cols: []string{"v"},
		}
		if folding {
			spec.Fold = FoldSum(0)
		}
		var partials []*IndexedTable
		for p := 0; p < 5; p++ {
			idx := newOutputIndex(spec, nil)
			for i := 0; i < 9000; i++ {
				idx.Insert(uint64(rng.Intn(1<<22)), []uint64{uint64(rng.Intn(10))})
			}
			partials = append(partials, NewIndexedTable(spec.Name, spec.Key, spec.Cols, idx))
		}
		serial, _ := mergePartials(nil, spec, partials, nil)
		ec := &ExecContext{opts: Options{Workers: 4}}
		par, _ := mergePartialsParallel(ec, spec, partials)
		if _, sharded := par.Idx.(*shardedIndex); !sharded {
			t.Fatalf("folding=%v: parallel merge did not shard", folding)
		}
		assertSameTable(t, serial, par)
	}
}

// assertSameTable checks two indexed tables hold the same keys in the same
// ascending order with the same per-key row multisets.
func assertSameTable(t *testing.T, a, b *IndexedTable) {
	t.Helper()
	if a.Rows() != b.Rows() || a.Keys() != b.Keys() {
		t.Fatalf("rows/keys: %d/%d vs %d/%d", a.Rows(), a.Keys(), b.Rows(), b.Keys())
	}
	collect := func(tb *IndexedTable) ([]uint64, map[uint64]map[[2]uint64]int) {
		var order []uint64
		rows := map[uint64]map[[2]uint64]int{}
		tb.Idx.Iterate(func(k uint64, vals *duplist.List) bool {
			order = append(order, k)
			m := map[[2]uint64]int{}
			vals.Scan(func(row []uint64) bool {
				var cell [2]uint64
				copy(cell[:], row)
				m[cell]++
				return true
			})
			rows[k] = m
			return true
		})
		return order, rows
	}
	aOrder, aRows := collect(a)
	bOrder, bRows := collect(b)
	if !reflect.DeepEqual(aOrder, bOrder) {
		t.Fatal("key iteration order differs")
	}
	if !reflect.DeepEqual(aRows, bRows) {
		t.Fatal("per-key row multisets differ")
	}
}

// TestShardedIndexSemantics: the sharded index a parallel merge produces
// must behave exactly like the equivalent plain index for every Index
// operation downstream operators use.
func TestShardedIndexSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	spec := &OutputSpec{Name: "s", Key: SimpleKey("k", 32), Cols: []string{"v"}}
	var partials []*IndexedTable
	for p := 0; p < 3; p++ {
		idx := newOutputIndex(spec, nil)
		for i := 0; i < 6000; i++ {
			idx.Insert(uint64(rng.Intn(1<<30)), []uint64{uint64(i)})
		}
		partials = append(partials, NewIndexedTable(spec.Name, spec.Key, spec.Cols, idx))
	}
	plain, _ := mergePartials(nil, spec, partials, nil)
	ec := &ExecContext{opts: Options{Workers: 3}}
	sharded, _ := mergePartialsParallel(ec, spec, partials)
	sh, ok := sharded.Idx.(*shardedIndex)
	if !ok {
		t.Fatal("parallel merge did not shard")
	}

	if pm, _ := plain.Idx.Min(); func() uint64 { m, _ := sh.Min(); return m }() != pm {
		t.Fatal("Min differs")
	}
	if pm, _ := plain.Idx.Max(); func() uint64 { m, _ := sh.Max(); return m }() != pm {
		t.Fatal("Max differs")
	}
	if sh.PayloadWidth() != plain.Idx.PayloadWidth() {
		t.Fatal("PayloadWidth differs")
	}

	// Point lookups and batch lookups, hits and misses.
	probes := make([]uint64, 0, 6000)
	for i := 0; i < 4000; i++ {
		probes = append(probes, uint64(rng.Intn(1<<30)))
	}
	hits := 0
	plain.Idx.Iterate(func(k uint64, _ *duplist.List) bool {
		probes = append(probes, k)
		hits++
		return hits < 2000
	})
	for _, k := range probes {
		a, b := plain.Idx.Lookup(k), sh.Lookup(k)
		if (a == nil) != (b == nil) {
			t.Fatalf("Lookup(%d) presence differs", k)
		}
		if a != nil && a.Len() != b.Len() {
			t.Fatalf("Lookup(%d) multiplicity differs", k)
		}
	}
	got := map[int]int{}
	sh.LookupBatch(probes, func(i int, vals *duplist.List) {
		if vals != nil {
			got[i] = vals.Len()
		}
	})
	want := map[int]int{}
	plain.Idx.LookupBatch(probes, func(i int, vals *duplist.List) {
		if vals != nil {
			want[i] = vals.Len()
		}
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("LookupBatch results differ")
	}

	// Range scans, including ones spanning shard boundaries.
	for trial := 0; trial < 50; trial++ {
		lo := uint64(rng.Intn(1 << 30))
		hi := lo + uint64(rng.Intn(1<<28))
		var a, b []uint64
		plain.Idx.Range(lo, min(hi, keySpaceMax(32)), func(k uint64, _ *duplist.List) bool {
			a = append(a, k)
			return true
		})
		sh.Range(lo, min(hi, keySpaceMax(32)), func(k uint64, _ *duplist.List) bool {
			b = append(b, k)
			return true
		})
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("Range(%d,%d) differs: %d vs %d keys", lo, hi, len(a), len(b))
		}
	}

	// Inserting after the merge routes to the owning shard.
	preKeys := sh.Keys()
	sh.Insert(0, []uint64{7})
	sh.Insert(keySpaceMax(32), []uint64{8})
	if sh.Keys() < preKeys+1 {
		t.Fatal("post-merge inserts lost")
	}
	if sh.Lookup(keySpaceMax(32)) == nil {
		t.Fatal("post-merge insert at key-space edge not found")
	}
}

// narrowFixture is a star with a narrow selection dimension: sel holds
// nSelRows rows over only three keys (1, 2 and 4), each row carrying a
// foreign key into main, the fact-side index of mainRows rows that every
// selected row fans out to; grp is an assisting index on main's group
// column.
type narrowFixture struct {
	sel  *IndexedTable // key g (1, 2, 4), payload [fk]
	main *IndexedTable // key fk, payload [grp, val]
	grp  *IndexedTable // key grp, payload [label]
}

const nSelRows = 3000

func buildNarrowFixture(seed int64, mainRows int) *narrowFixture {
	rng := rand.New(rand.NewSource(seed))
	sel := NewIndex(IndexConfig{KeyBits: 8, PayloadWidth: 1})
	keys := []uint64{1, 2, 4}
	for i := 0; i < nSelRows; i++ {
		sel.Insert(keys[rng.Intn(len(keys))], []uint64{uint64(rng.Intn(3000))})
	}
	main := NewIndex(IndexConfig{KeyBits: 16, PayloadWidth: 2})
	for i := 0; i < mainRows; i++ {
		main.Insert(uint64(rng.Intn(3000)), []uint64{uint64(rng.Intn(40)), uint64(rng.Intn(100))})
	}
	grp := NewIndex(IndexConfig{KeyBits: 8, PayloadWidth: 1})
	for g := uint64(0); g < 40; g++ {
		if g%7 != 3 { // some groups miss: the assist probe drops them
			grp.Insert(g, []uint64{g % 5})
		}
	}
	return &narrowFixture{
		sel:  NewIndexedTable("sel[g]", SimpleKey("g", 8), []string{"fk"}, sel),
		main: NewIndexedTable("main[fk]", SimpleKey("fk", 16), []string{"grp", "val"}, main),
		grp:  NewIndexedTable("grp[grp]", SimpleKey("grp", 8), []string{"label"}, grp),
	}
}

// selectJoin builds σ(sel, pred) ⋈ main, assisted by grp, with a plain
// (non-folding) output keyed on the group label carrying val and fk — the
// row multiset is then sensitive to every row fed more or less than once.
func (f *narrowFixture) selectJoin(pred KeyPred) *SelectJoin {
	return &SelectJoin{
		SelInput:      &Base{Table: f.sel},
		Pred:          pred,
		Main:          &Base{Table: f.main},
		ProbeMainWith: Ref{Input: 0, Attr: "fk"},
		Assists:       []Assist{{Input: &Base{Table: f.grp}, ProbeWith: Ref{Input: 1, Attr: "grp"}}},
		Out: OutputSpec{
			Name:     "Γ",
			Key:      SimpleKey("label", 8),
			KeyRefs:  []Ref{{Input: 2, Attr: "label"}},
			Cols:     []string{"val", "fk"},
			ColExprs: []RowExpr{Attr(1, "val"), Attr(0, "fk")},
		},
	}
}

// assertSameAcrossWorkers runs the plan built by mk serially and at
// Workers 2, 3 and 8, and requires the same keys and per-key row
// multisets every time (rows of at most two columns), with the root
// operator split in morsel mode wantMode. It returns the serial output's
// row count.
func assertSameAcrossWorkers(t *testing.T, name, wantMode string, mk func() Operator) int {
	t.Helper()
	ref, _, err := (&Plan{Root: mk()}).Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 8} {
		got, stats, err := (&Plan{Root: mk()}).Run(Options{Workers: w, CollectStats: true})
		if err != nil {
			t.Fatal(err)
		}
		assertSameTable(t, ref, got)
		if mode := stats.Ops[len(stats.Ops)-1].MorselMode; mode != wantMode {
			t.Fatalf("%s: workers=%d split into %s morsels, want %s", name, w, mode, wantMode)
		}
	}
	return ref.Rows()
}

// TestNarrowEnvelopeSelectJoin: a selection envelope narrower than the
// morsel count splits by row slice; every selected row must still be
// probed exactly once.
func TestNarrowEnvelopeSelectJoin(t *testing.T) {
	f := buildNarrowFixture(101, 40000)
	for _, tc := range []struct {
		name string
		pred KeyPred
	}{
		{"single key", Point(2)},
		{"two ranges", KeyPred{{Lo: 1, Hi: 1}, {Lo: 3, Hi: 4}}},
	} {
		mk := func() Operator { return f.selectJoin(tc.pred) }
		if n := assertSameAcrossWorkers(t, tc.name, morselsRowSlice, mk); n == 0 {
			t.Fatalf("%s: empty result proves nothing", tc.name)
		}
	}
}

// TestNarrowEnvelopeExistenceOnlySelection: row slices over an
// existence-only input split its duplicate multiplicity, never dropping
// or repeating a unit. A counting (folding) output makes the split pay,
// so it row-slices; a plain output would only re-insert its partials in
// the merge, so it keeps one morsel — and must match just the same.
func TestNarrowEnvelopeExistenceOnlySelection(t *testing.T) {
	idx := NewIndex(IndexConfig{KeyBits: 8})
	for k, n := range map[uint64]int{3: 700, 4: 5, 5: 333, 9: 50} {
		for i := 0; i < n; i++ {
			idx.Insert(k, nil)
		}
	}
	in := NewIndexedTable("exists[k]", SimpleKey("k", 8), nil, idx)
	plain := OutputSpec{Name: "σ", Key: SimpleKey("k", 8), KeyRefs: []Ref{{Input: 0, Attr: "k"}}}
	count := plain
	count.Cols = []string{"n"}
	count.ColExprs = []RowExpr{Computed(func([]uint64) uint64 { return 1 })}
	count.Fold = FoldSum(0)
	for _, pred := range []KeyPred{Point(3), Between(3, 5)} {
		for _, tc := range []struct {
			out  OutputSpec
			mode string
			rows int // rows of the serial output
		}{
			{plain, morselsKeyRange, 700},
			{count, morselsRowSlice, 1},
		} {
			sel := func() Operator { return &Selection{Input: &Base{Table: in}, Pred: pred, Out: tc.out} }
			name := fmt.Sprintf("%v fold=%v", pred, tc.out.Fold != nil)
			if n := assertSameAcrossWorkers(t, name, tc.mode, sel); n < tc.rows {
				t.Fatalf("%s: %d rows, multiplicity lost", name, n)
			}
		}
	}
}

// TestNarrowSyncScanJoinAndIntersect: Join and Intersect cannot honour a
// row slice; with sync-scan bounds narrower than the morsel count they
// keep key-range morsels and must feed every pair exactly once.
func TestNarrowSyncScanJoinAndIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	a := NewIndex(IndexConfig{KeyBits: 16, PayloadWidth: 1})
	b := NewIndex(IndexConfig{KeyBits: 16, PayloadWidth: 1})
	for i := 0; i < 300; i++ {
		a.Insert(uint64(5+rng.Intn(3)), []uint64{uint64(i)})
		b.Insert(uint64(6+rng.Intn(3)), []uint64{uint64(1000 + i)})
	}
	ta := NewIndexedTable("a[k]", SimpleKey("k", 16), []string{"x"}, a)
	tb := NewIndexedTable("b[k]", SimpleKey("k", 16), []string{"y"}, b)
	if lo, hi, _ := syncScanBounds(a, b); hi-lo+1 >= 8 {
		t.Fatalf("sync-scan span %d..%d is not narrower than the morsel count", lo, hi)
	}
	join := func() Operator {
		return &Join{
			Left: &Base{Table: ta}, Right: &Base{Table: tb},
			Out: OutputSpec{
				Name: "⋈", Key: SimpleKey("k", 16), KeyRefs: []Ref{{Input: 0, Attr: "k"}},
				Cols: []string{"x", "y"}, ColExprs: []RowExpr{Attr(0, "x"), Attr(1, "y")},
			},
		}
	}
	inter := func() Operator {
		return &Intersect{
			A: &Base{Table: ta}, B: &Base{Table: tb},
			Out: OutputSpec{Name: "∩", Key: SimpleKey("k", 16), KeyRefs: []Ref{{Input: 0, Attr: "k"}}},
		}
	}
	for name, mk := range map[string]func() Operator{"join": join, "intersect": inter} {
		if n := assertSameAcrossWorkers(t, name, morselsKeyRange, mk); n == 0 {
			t.Fatalf("%s: empty result proves nothing", name)
		}
	}
}

// TestNarrowSelectJoinEngagesWorkers: the single-key select-join must
// actually spread over the pool — split into row-slice morsels, with
// more than one worker contributing a partial — and PlanStats must say
// so. Which worker claims which morsel is up to the scheduler, so the
// run repeats until a second worker has joined in. A helper goroutine
// needs a second P to start before the caller's loop has claimed every
// morsel, so the test runs with at least two.
func TestNarrowSelectJoinEngagesWorkers(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	f := buildNarrowFixture(107, 40000)
	line := regexp.MustCompile(`\[2 workers, 8 morsels, row-slice, (\d+)/(\d+)\]`)
	var last string
	for attempt := 0; attempt < 50; attempt++ {
		_, stats, err := (&Plan{Root: f.selectJoin(Point(2))}).Run(Options{Workers: 2, CollectStats: true})
		if err != nil {
			t.Fatal(err)
		}
		op := stats.Ops[len(stats.Ops)-1]
		if op.MorselMode != morselsRowSlice {
			t.Fatalf("morsel mode = %q, want %q", op.MorselMode, morselsRowSlice)
		}
		if op.Morsels != 8 {
			t.Fatalf("%d morsels, want 8 (2 workers × %d)", op.Morsels, DefaultMorselsPerWorker)
		}
		sum := 0
		for _, m := range op.WorkerMorsels {
			sum += m
		}
		if len(op.WorkerMorsels) != op.Workers || sum != op.Morsels {
			t.Fatalf("per-worker morsels %v do not add up to %d workers, %d morsels", op.WorkerMorsels, op.Workers, op.Morsels)
		}
		last = stats.String()
		if op.Workers > 1 {
			m := line.FindStringSubmatch(last)
			if m == nil {
				t.Fatalf("stats string lacks the morsel line:\n%s", last)
			}
			if m[1]+"/"+m[2] != fmt.Sprintf("%d/%d", op.WorkerMorsels[0], op.WorkerMorsels[1]) {
				t.Fatalf("stats string per-worker split %s/%s, want %v", m[1], m[2], op.WorkerMorsels)
			}
			return
		}
	}
	t.Fatalf("single-key select-join never ran on more than one worker:\n%s", last)
}
