package ssb

import (
	"reflect"
	"strings"
	"testing"

	"qppt/internal/core"
	"qppt/internal/sql"
)

// TestMorselParallelMatchesSerial asserts bit-identical results between
// serial and morsel-driven execution for every SSB query, across plan
// shapes (with and without composed select-joins) and pool sizes. The
// grouped aggregates fold associatively and the result index iterates in
// key order, so the parallel schedule must be completely invisible in the
// output.
func TestMorselParallelMatchesSerial(t *testing.T) {
	ds := testDataset(t)
	for _, qid := range QueryIDs {
		for _, useSJ := range []bool{true, false} {
			serial, _, err := ds.RunQPPT(qid, PlanOptions{UseSelectJoin: useSJ})
			if err != nil {
				t.Fatalf("Q%s serial: %v", qid, err)
			}
			for _, workers := range []int{2, 4} {
				opt := PlanOptions{
					UseSelectJoin: useSJ,
					Exec:          core.Options{Workers: workers, MorselsPerWorker: 3},
				}
				par, _, err := ds.RunQPPT(qid, opt)
				if err != nil {
					t.Fatalf("Q%s workers=%d: %v", qid, workers, err)
				}
				if !reflect.DeepEqual(serial.Rows, par.Rows) {
					t.Errorf("Q%s selectjoin=%v workers=%d: parallel result differs (%d vs %d rows)",
						qid, useSJ, workers, len(par.Rows), len(serial.Rows))
				}
			}
		}
	}
}

// TestMorselStatsRecordConfiguration: the plan statistics must surface
// the pool configuration and the per-operator worker/morsel counts, so
// benchmark output records what it measured.
func TestMorselStatsRecordConfiguration(t *testing.T) {
	ds := testDataset(t)
	// NoFuse: the fan-out assertion needs the final join to drive its own
	// morsels over the wide date-key space; fused, the whole chain is
	// driven by the select-join's narrow selection envelope.
	_, stats, err := ds.RunQPPT("2.3", PlanOptions{
		UseSelectJoin: true,
		Exec:          core.Options{Workers: 3, MorselsPerWorker: 5, CollectStats: true, NoFuse: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workers != 3 || stats.MorselsPerWorker != 5 {
		t.Fatalf("plan stats pool = %d×%d, want 3×5", stats.Workers, stats.MorselsPerWorker)
	}
	fanned := false
	for _, op := range stats.Ops {
		if op.Morsels > 1 {
			fanned = true
		}
		if op.Workers < 1 || op.Morsels < op.Workers {
			t.Fatalf("%s: %d workers, %d morsels", op.Label, op.Workers, op.Morsels)
		}
	}
	if !fanned {
		t.Fatal("no operator recorded a morsel fan-out > 1")
	}
	if s := stats.String(); !strings.Contains(s, "workers") || !strings.Contains(s, "morsels") {
		t.Fatalf("stats string does not record the pool configuration:\n%s", s)
	}
}

// TestSQLMorselModesMatchSerial pins the SQL plans — select-joins over
// one- to six-key selection envelopes, the shape whose morsels split by
// row slice — bit-identical to serial execution at every pool size from
// 2 to 8 and with 2 workers under a 1 MiB memory budget, and checks that
// the row-slice split actually engages on some query.
func TestSQLMorselModesMatchSerial(t *testing.T) {
	ds := testDataset(t)
	planner := sql.NewPlanner(ds.Cat)
	run := func(qid string, exec core.Options) (*sql.Rows, *core.PlanStats) {
		t.Helper()
		stmt, err := planner.PlanSQL(SQLTexts[qid], sql.Options{UseSelectJoin: true, Exec: exec})
		if err != nil {
			t.Fatalf("Q%s: plan: %v", qid, err)
		}
		rows, stats, err := stmt.Run()
		if err != nil {
			t.Fatalf("Q%s %+v: run: %v", qid, exec, err)
		}
		return rows, stats
	}
	sliced := false
	for _, qid := range QueryIDs {
		serial, _ := run(qid, core.Options{})
		modes := []core.Options{{Workers: 2, MemBudget: 1 << 20, CollectStats: true}}
		for w := 2; w <= 8; w++ {
			modes = append(modes, core.Options{Workers: w, CollectStats: true})
		}
		for _, exec := range modes {
			par, stats := run(qid, exec)
			if !reflect.DeepEqual(serial.Rows, par.Rows) {
				t.Errorf("Q%s workers=%d budget=%d: result differs from serial (%d vs %d rows)",
					qid, exec.Workers, exec.MemBudget, len(par.Rows), len(serial.Rows))
			}
			for _, op := range stats.Ops {
				sliced = sliced || op.MorselMode == "row-slice"
			}
		}
	}
	if !sliced {
		t.Fatal("no SQL plan split into row-slice morsels")
	}
}
