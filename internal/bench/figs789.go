package bench

import (
	"context"
	"fmt"
	"time"

	"qppt/internal/arena"
	"qppt/internal/core"
	"qppt/internal/ssb"
)

// Engines in the paper's plot order.
const (
	EngineQPPT   = "DexterDB (QPPT)"
	EngineVector = "Commercial DBMS (vector-at-a-time)"
	EngineColumn = "MonetDB (column-at-a-time)"
)

// A QueryTime is one bar of Figures 7–9.
type QueryTime struct {
	Query  string
	Engine string
	Config string // plan configuration, where varied
	Millis float64
	Rows   int
}

// timeIt runs fn reps times and returns the best wall time in ms — the
// usual way to strip scheduler noise from single-run query timings.
func timeIt(reps int, fn func() int) (float64, int) {
	if reps < 1 {
		reps = 1
	}
	best := time.Duration(1<<62 - 1)
	rows := 0
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		rows = fn()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return float64(best.Microseconds()) / 1000, rows
}

// Figure7 reruns the paper's headline experiment: all thirteen SSB
// queries on the three engines, single-threaded, with QPPT in its default
// configuration (composed select-joins, unlimited join arity).
func Figure7(ds *ssb.Dataset, reps int) ([]QueryTime, error) {
	return Figure7Exec(ds, reps, core.Options{})
}

// Figure7Exec is Figure7 with explicit execution options for the QPPT
// engine, so the figure can also be regenerated with the morsel-driven
// worker pool enabled (the baselines stay single-threaded either way);
// the QPPT rows record the pool size in their Config.
func Figure7Exec(ds *ssb.Dataset, reps int, exec core.Options) ([]QueryTime, error) {
	var out []QueryTime
	qpptConfig := ""
	if w := exec.Workers; w > 1 {
		qpptConfig = fmt.Sprintf("workers=%d", w)
	}
	for _, qid := range ssb.QueryIDs {
		qppt := ssb.DefaultPlanOptions()
		qppt.Exec = exec
		var err error
		ms, rows := timeIt(reps, func() int {
			res, _, e := ds.RunQPPT(qid, qppt)
			if e != nil {
				err = e
				return 0
			}
			return len(res.Rows)
		})
		if err != nil {
			return nil, fmt.Errorf("bench: Q%s qppt: %w", qid, err)
		}
		out = append(out, QueryTime{Query: qid, Engine: EngineQPPT, Config: qpptConfig, Millis: ms, Rows: rows})

		ms, rows = timeIt(reps, func() int {
			res, e := ds.RunVector(qid)
			if e != nil {
				err = e
				return 0
			}
			return len(res.Rows)
		})
		if err != nil {
			return nil, fmt.Errorf("bench: Q%s vector: %w", qid, err)
		}
		out = append(out, QueryTime{Query: qid, Engine: EngineVector, Millis: ms, Rows: rows})

		ms, rows = timeIt(reps, func() int {
			res, e := ds.RunColumn(qid)
			if e != nil {
				err = e
				return 0
			}
			return len(res.Rows)
		})
		if err != nil {
			return nil, fmt.Errorf("bench: Q%s column: %w", qid, err)
		}
		out = append(out, QueryTime{Query: qid, Engine: EngineColumn, Millis: ms, Rows: rows})
	}
	return out, nil
}

// QPPTTimes times the thirteen SSB queries on the QPPT engine alone (no
// baselines) under the given execution options, labeling every row with
// config. The perf snapshot uses it to record extra engine configurations
// — e.g. a spill-enabled run under a memory budget — without re-timing
// the baseline engines.
func QPPTTimes(ds *ssb.Dataset, reps int, exec core.Options, config string) ([]QueryTime, error) {
	var out []QueryTime
	for _, qid := range ssb.QueryIDs {
		qppt := ssb.DefaultPlanOptions()
		qppt.Exec = exec
		var err error
		ms, rows := timeIt(reps, func() int {
			res, _, e := ds.RunQPPT(qid, qppt)
			if e != nil {
				err = e
				return 0
			}
			return len(res.Rows)
		})
		if err != nil {
			return nil, fmt.Errorf("bench: Q%s qppt (%s): %w", qid, config, err)
		}
		out = append(out, QueryTime{Query: qid, Engine: EngineQPPT, Config: config, Millis: ms, Rows: rows})
	}
	return out, nil
}

// QPPTTimesEnv is QPPTTimes against a long-lived execution environment:
// every query runs through env, so the worker pool, session chunk pool
// and spill budget carry across the suite exactly as they do under a
// qppt.Engine. The engine-vs-one-shot comparison of the perf snapshot
// uses it for the reused side.
func QPPTTimesEnv(ds *ssb.Dataset, reps int, exec core.Options, env *core.Env, config string) ([]QueryTime, error) {
	var out []QueryTime
	for _, qid := range ssb.QueryIDs {
		qppt := ssb.DefaultPlanOptions()
		qppt.Exec = exec
		var err error
		ms, rows := timeIt(reps, func() int {
			res, _, e := ds.RunQPPTCtx(context.Background(), qid, qppt, env)
			if e != nil {
				err = e
				return 0
			}
			return len(res.Rows)
		})
		if err != nil {
			return nil, fmt.Errorf("bench: Q%s qppt (%s): %w", qid, config, err)
		}
		out = append(out, QueryTime{Query: qid, Engine: EngineQPPT, Config: config, Millis: ms, Rows: rows})
	}
	return out, nil
}

// EngineReuseCompare runs the thirteen-query suite twice — one-shot
// (every plan builds and drops its own pool, recycler and spill state)
// and through one shared environment with cross-plan chunk recycling —
// and returns both sets of rows plus the reuse the shared environment
// accumulated. It is the benchmark form of the engine's reason to exist:
// identical queries, identical results, steady-state allocation behavior.
// exec applies to both sides — a MemBudget spills per-plan on the
// one-shot side and engine-wide on the reused side, and the row labels
// record it; recycleCap bounds the shared pool (0 = unbounded).
func EngineReuseCompare(ds *ssb.Dataset, reps int, exec core.Options, recycleCap int64) ([]QueryTime, arena.RecyclerStats, error) {
	suffix := ""
	if exec.MemBudget > 0 {
		suffix = ",membudget"
	}
	oneShot := exec
	oneShot.Recycle = true // per-plan pool: the strongest one-shot config
	rows, err := QPPTTimes(ds, reps, oneShot, "one-shot"+suffix)
	if err != nil {
		return nil, arena.RecyclerStats{}, err
	}
	env, err := core.NewEnv(core.EnvConfig{
		Workers:    exec.Workers,
		Recycle:    true,
		RecycleCap: recycleCap,
		MemBudget:  exec.MemBudget,
	})
	if err != nil {
		return nil, arena.RecyclerStats{}, err
	}
	defer env.Close()
	reused, err := QPPTTimesEnv(ds, reps, exec, env, "engine-reuse"+suffix)
	if err != nil {
		return nil, arena.RecyclerStats{}, err
	}
	return append(rows, reused...), env.RecyclerStats(), nil
}

// Figure8 reruns the select-join ablation on query 1.1: both baselines
// plus QPPT with the composed select-join-group operator and with a
// separate selection + join-group plan. The paper reports 151 ms vs
// 1709 ms (~11×) with ~95 % of the separate plan inside the selection.
func Figure8(ds *ssb.Dataset, reps int) ([]QueryTime, error) {
	return Figure8Exec(ds, reps, core.Options{})
}

// Figure8Exec is Figure8 with explicit execution options for the QPPT
// engine rows (the baselines stay single-threaded).
func Figure8Exec(ds *ssb.Dataset, reps int, exec core.Options) ([]QueryTime, error) {
	var out []QueryTime
	add := func(engine, config string, fn func() (int, error)) error {
		var err error
		ms, rows := timeIt(reps, func() int {
			n, e := fn()
			if e != nil {
				err = e
			}
			return n
		})
		if err != nil {
			return err
		}
		out = append(out, QueryTime{Query: "1.1", Engine: engine, Config: config, Millis: ms, Rows: rows})
		return nil
	}
	if err := add(EngineColumn, "", func() (int, error) {
		r, e := ds.RunColumn("1.1")
		return len(r.Rows), e
	}); err != nil {
		return nil, err
	}
	if err := add(EngineVector, "", func() (int, error) {
		r, e := ds.RunVector("1.1")
		return len(r.Rows), e
	}); err != nil {
		return nil, err
	}
	if err := add(EngineQPPT, "w/ Select-Join", func() (int, error) {
		r, _, e := ds.RunQPPT("1.1", ssb.PlanOptions{UseSelectJoin: true, Exec: exec})
		return len(r.Rows), e
	}); err != nil {
		return nil, err
	}
	if err := add(EngineQPPT, "w/o Select-Join", func() (int, error) {
		r, _, e := ds.RunQPPT("1.1", ssb.PlanOptions{UseSelectJoin: false, Exec: exec})
		return len(r.Rows), e
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Figure8SelectionShare reports the share of the separate plan's time
// spent in the lineorder selection operator (the paper: ~95 %).
func Figure8SelectionShare(ds *ssb.Dataset) (float64, error) {
	_, stats, err := ds.RunQPPT("1.1", ssb.PlanOptions{
		UseSelectJoin: false,
		Exec:          core.Options{CollectStats: true},
	})
	if err != nil {
		return 0, err
	}
	var sel, total time.Duration
	for _, op := range stats.Ops {
		total += op.Time
		if op.Label == "σ→σ_lineorder" {
			sel = op.Time
		}
	}
	if total == 0 {
		return 0, nil
	}
	return float64(sel) / float64(total), nil
}

// Figure9 reruns the multi-way join arity ablation on query 4.1: both
// baselines plus QPPT plans capped at 2-, 3-, 4- and 5-way composed
// joins. The paper reports monotone improvement with the 2→3-way step
// the largest (4939 → 1595 → 1091 → 842 ms).
func Figure9(ds *ssb.Dataset, reps int) ([]QueryTime, error) {
	return Figure9Exec(ds, reps, core.Options{})
}

// Figure9Exec is Figure9 with explicit execution options for the QPPT
// engine rows (the baselines stay single-threaded).
func Figure9Exec(ds *ssb.Dataset, reps int, exec core.Options) ([]QueryTime, error) {
	var out []QueryTime
	var err error
	ms, rows := timeIt(reps, func() int {
		r, e := ds.RunColumn("4.1")
		if e != nil {
			err = e
			return 0
		}
		return len(r.Rows)
	})
	if err != nil {
		return nil, err
	}
	out = append(out, QueryTime{Query: "4.1", Engine: EngineColumn, Millis: ms, Rows: rows})
	ms, rows = timeIt(reps, func() int {
		r, e := ds.RunVector("4.1")
		if e != nil {
			err = e
			return 0
		}
		return len(r.Rows)
	})
	if err != nil {
		return nil, err
	}
	out = append(out, QueryTime{Query: "4.1", Engine: EngineVector, Millis: ms, Rows: rows})
	for arity := 5; arity >= 2; arity-- {
		arity := arity
		ms, rows = timeIt(reps, func() int {
			r, _, e := ds.RunQPPT("4.1", ssb.PlanOptions{JoinArity: arity, Exec: exec})
			if e != nil {
				err = e
				return 0
			}
			return len(r.Rows)
		})
		if err != nil {
			return nil, err
		}
		out = append(out, QueryTime{
			Query: "4.1", Engine: EngineQPPT,
			Config: fmt.Sprintf("%d-way join", arity), Millis: ms, Rows: rows,
		})
	}
	return out, nil
}
