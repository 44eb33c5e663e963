package ssb

import (
	"reflect"
	"testing"

	"qppt/internal/core"
)

// peakIntermediateBytes reports the largest intermediate-index footprint a
// query's plan builds, measured from an unbudgeted stats run.
func peakIntermediateBytes(t *testing.T, ds *Dataset, qid string, opt PlanOptions) int {
	t.Helper()
	opt.Exec.CollectStats = true
	_, stats, err := ds.RunQPPT(qid, opt)
	if err != nil {
		t.Fatalf("Q%s stats run: %v", qid, err)
	}
	peak := 0
	for _, op := range stats.Ops {
		if op.OutBytes > peak {
			peak = op.OutBytes
		}
	}
	return peak
}

// TestSpillBudgetMatchesUnbudgeted is the spilling acceptance test: every
// SSB query runs under a memory budget smaller than the plan's peak
// intermediate-index footprint, actually spills and restores intermediate
// indexes (nonzero counters in PlanStats), and produces rows bit-identical
// to the unbudgeted run — spilling is a pure storage decision.
func TestSpillBudgetMatchesUnbudgeted(t *testing.T) {
	ds := testDataset(t)
	for _, qid := range QueryIDs {
		for _, useSJ := range []bool{true, false} {
			plain, _, err := ds.RunQPPT(qid, PlanOptions{UseSelectJoin: useSJ})
			if err != nil {
				t.Fatalf("Q%s unbudgeted: %v", qid, err)
			}
			peak := peakIntermediateBytes(t, ds, qid, PlanOptions{UseSelectJoin: useSJ})
			if peak == 0 {
				t.Fatalf("Q%s: no intermediate footprint measured", qid)
			}
			budget := int64(peak) / 2
			if budget == 0 {
				budget = 1
			}
			opt := PlanOptions{
				UseSelectJoin: useSJ,
				Exec:          core.Options{MemBudget: budget, CollectStats: true},
			}
			budgeted, stats, err := ds.RunQPPT(qid, opt)
			if err != nil {
				t.Fatalf("Q%s budget=%d: %v", qid, budget, err)
			}
			if !reflect.DeepEqual(plain.Rows, budgeted.Rows) {
				t.Errorf("Q%s selectjoin=%v budget=%d: budgeted result differs (%d vs %d rows)",
					qid, useSJ, budget, len(budgeted.Rows), len(plain.Rows))
			}
			if stats.Spills == 0 || stats.Restores == 0 {
				t.Errorf("Q%s selectjoin=%v budget=%d (peak %d): spills=%d restores=%d, want both nonzero",
					qid, useSJ, budget, peak, stats.Spills, stats.Restores)
			}
			if stats.MemBudget != budget {
				t.Errorf("Q%s: stats budget = %d, want %d", qid, stats.MemBudget, budget)
			}
		}
	}
}

// Morsel-driven parallel execution under a budget: branches resolve (and
// pin/unpin their inputs) concurrently, the merged sharded outputs spill
// shard-by-shard, and the result must still be bit-identical.
func TestSpillBudgetUnderParallelism(t *testing.T) {
	ds := testDataset(t)
	for _, qid := range []string{"1.1", "2.3", "3.1", "4.1"} {
		plain, _, err := ds.RunQPPT(qid, PlanOptions{UseSelectJoin: true})
		if err != nil {
			t.Fatalf("Q%s serial: %v", qid, err)
		}
		opt := PlanOptions{
			UseSelectJoin: true,
			Exec: core.Options{
				Workers:          3,
				MorselsPerWorker: 3,
				MemBudget:        1, // everything cold spills
				CollectStats:     true,
			},
		}
		par, stats, err := ds.RunQPPT(qid, opt)
		if err != nil {
			t.Fatalf("Q%s parallel budgeted: %v", qid, err)
		}
		if !reflect.DeepEqual(plain.Rows, par.Rows) {
			t.Errorf("Q%s: parallel budgeted result differs", qid)
		}
		if stats.Spills == 0 || stats.Restores == 0 {
			t.Errorf("Q%s: parallel run recorded spills=%d restores=%d", qid, stats.Spills, stats.Restores)
		}
	}
}

// A budgeted run of the decomposed-selection plan shape (intersect/union
// set operators over rid indexes) exercises spilling across the remaining
// operator kinds.
func TestSpillBudgetDecomposedSelections(t *testing.T) {
	ds := testDataset(t)
	plain, _, err := ds.RunQPPT("1.1", PlanOptions{DecomposeSelections: true})
	if err != nil {
		t.Fatal(err)
	}
	budgeted, stats, err := ds.RunQPPT("1.1", PlanOptions{
		DecomposeSelections: true,
		Exec:                core.Options{MemBudget: 1, CollectStats: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Rows, budgeted.Rows) {
		t.Error("decomposed budgeted result differs")
	}
	if stats.Spills == 0 || stats.Restores == 0 {
		t.Errorf("decomposed plan: spills=%d restores=%d", stats.Spills, stats.Restores)
	}
}

// TestSpillRecycleMatches is the memory-lifecycle acceptance test: every
// SSB query runs with the plan-scoped chunk recycler AND spilling
// enabled, serially and under morsel parallelism, under a budget below
// the plan's peak intermediate footprint — and must stay bit-identical
// to the plain run while the recycler and spill counters prove both
// mechanisms actually engaged.
func TestSpillRecycleMatches(t *testing.T) {
	ds := testDataset(t)
	sawRestore, sawReuse := false, false
	for _, qid := range QueryIDs {
		plain, _, err := ds.RunQPPT(qid, PlanOptions{UseSelectJoin: true})
		if err != nil {
			t.Fatalf("Q%s plain: %v", qid, err)
		}
		peak := peakIntermediateBytes(t, ds, qid, PlanOptions{UseSelectJoin: true})
		budget := int64(peak) / 2
		if budget == 0 {
			budget = 1
		}
		for _, workers := range []int{1, 3} {
			opt := PlanOptions{
				UseSelectJoin: true,
				Exec: core.Options{
					Workers:      workers,
					MemBudget:    budget,
					Recycle:      true,
					CollectStats: true,
				},
			}
			got, stats, err := ds.RunQPPT(qid, opt)
			if err != nil {
				t.Fatalf("Q%s workers=%d recycle+spill: %v", qid, workers, err)
			}
			if !reflect.DeepEqual(plain.Rows, got.Rows) {
				t.Errorf("Q%s workers=%d: recycle+spill result differs (%d vs %d rows)",
					qid, workers, len(got.Rows), len(plain.Rows))
			}
			if stats.ChunksRecycled == 0 {
				t.Errorf("Q%s workers=%d: recycler idle: %+v", qid, workers, stats)
			}
			sawRestore = sawRestore || stats.Restores > 0
			sawReuse = sawReuse || stats.ChunksReused > 0
		}
	}
	if !sawReuse {
		t.Error("no query reused a recycled chunk")
	}
	if !sawRestore {
		t.Error("no query restored a spilled intermediate")
	}
}

// The recycler alone (no budget, no spilling) must also be invisible in
// the results — serially and in parallel, across plan shapes.
func TestRecycleMatchesAcrossPlanShapes(t *testing.T) {
	ds := testDataset(t)
	for _, qid := range QueryIDs {
		for _, useSJ := range []bool{true, false} {
			plain, _, err := ds.RunQPPT(qid, PlanOptions{UseSelectJoin: useSJ})
			if err != nil {
				t.Fatalf("Q%s: %v", qid, err)
			}
			for _, workers := range []int{1, 3} {
				opt := PlanOptions{
					UseSelectJoin: useSJ,
					Exec:          core.Options{Workers: workers, Recycle: true, CollectStats: true},
				}
				got, stats, err := ds.RunQPPT(qid, opt)
				if err != nil {
					t.Fatalf("Q%s selectjoin=%v workers=%d recycle: %v", qid, useSJ, workers, err)
				}
				if !reflect.DeepEqual(plain.Rows, got.Rows) {
					t.Errorf("Q%s selectjoin=%v workers=%d: recycled result differs", qid, useSJ, workers)
				}
				// Single-operator plans (a lone composed select-join over
				// base tables) have no intermediate to drop; everywhere
				// else the recycler must have seen traffic.
				if len(stats.Ops) > 1 && stats.ChunksRecycled == 0 {
					t.Errorf("Q%s selectjoin=%v workers=%d: recycler idle across %d operators",
						qid, useSJ, workers, len(stats.Ops))
				}
			}
		}
	}
}
