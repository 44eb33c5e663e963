package core

import "testing"

// BenchmarkNarrowSelectJoin times a select-join whose selection envelope
// is a single key — the shape of every SSB SQL plan — fanning out to a
// large main index and folding into a handful of groups, serially and
// under morsel parallelism. A one-key envelope has no key range to split,
// so the parallel runs only beat serial through row-slice morsels, and
// only if each morsel's probes run on the worker that claimed it.
func BenchmarkNarrowSelectJoin(b *testing.B) {
	f := buildNarrowFixture(109, 400000)
	for _, cfg := range []struct {
		name string
		opts Options
	}{
		{"serial", Options{}},
		{"w2", Options{Workers: 2}},
		{"w4", Options{Workers: 4}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sj := f.selectJoin(Point(2))
				sj.Out = OutputSpec{
					Name:     "Γ",
					Key:      SimpleKey("label", 8),
					KeyRefs:  []Ref{{Input: 2, Attr: "label"}},
					Cols:     []string{"sum_val"},
					ColExprs: []RowExpr{Attr(1, "val")},
					Fold:     FoldSum(0),
				}
				out, _, err := (&Plan{Root: sj}).Run(cfg.opts)
				if err != nil {
					b.Fatal(err)
				}
				benchKeys += out.Keys()
			}
		})
	}
}
