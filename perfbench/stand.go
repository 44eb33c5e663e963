package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"slices"

	"qppt"
	"qppt/internal/ssb"
	"qppt/internal/wire"
	"qppt/internal/wire/client"
)

// A stand is one set-up system under test: the dataset, the engine and,
// for the wire workload, a TCP server with the benchmark's connections.
type stand struct {
	ds       *ssb.Dataset
	eng      *qppt.Engine
	sess     *qppt.Session
	srv      *wire.Server
	served   chan error // Serve's return, once the server closes
	conns    []*client.Conn
	spillDir string
}

// setUp builds a stand: ssb.Load, engine (and server) start, and a warm
// pass that runs every query's first Prepare and Run, so the measured
// phase does not pay the planner's base-index builds. Over the wire each
// connection also runs every query once, filling its statement cache.
func setUp(ctx context.Context, w workload, cfg config, tr *tracer) (st *stand, err error) {
	st = &stand{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	id := tr.begin("ssb.load", tr.request(), -1)
	st.ds, err = ssb.Load(ssb.GenConfig{SF: scaleFactor, Seed: dataSeed})
	tr.end(id)
	if err != nil {
		return st, fmt.Errorf("ssb.Load: %w", err)
	}
	if w.memBudget > 0 {
		if st.spillDir, err = os.MkdirTemp(cfg.out, "spill-"); err != nil {
			return st, err
		}
	}
	st.eng, err = qppt.New(qppt.Config{
		Workers:   cfg.workers,
		MemBudget: w.memBudget,
		SpillDir:  st.spillDir,
		MaxPlans:  w.maxPlans,
	})
	if err != nil {
		return st, fmt.Errorf("qppt.New: %w", err)
	}
	st.sess = st.eng.Session(st.ds.Cat)
	if w.open {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return st, err
		}
		st.srv = wire.NewServer(st.eng, st.ds.Cat)
		st.served = make(chan error, 1)
		go func() { st.served <- st.srv.Serve(ln) }()
		for i := 0; i < cfg.workers; i++ {
			c, err := client.New(ln.Addr().String())
			if err != nil {
				return st, fmt.Errorf("wire client: %w", err)
			}
			st.conns = append(st.conns, c)
		}
	}
	for _, qid := range ssb.QueryIDs {
		req := tr.request()
		id := tr.begin("sql.cold_prepare", req, -1)
		stmt, err := st.sess.Prepare(ctx, ssb.SQLTexts[qid])
		tr.end(id)
		if err != nil {
			return st, fmt.Errorf("Q%s: prepare: %w", qid, err)
		}
		id = tr.begin("core.cold_run", req, -1)
		_, _, err = stmt.Run(ctx)
		tr.end(id)
		if err != nil {
			return st, fmt.Errorf("Q%s: run: %w", qid, err)
		}
	}
	for _, c := range st.conns {
		for _, qid := range ssb.QueryIDs {
			if _, err := c.Query(ssb.SQLTexts[qid]); err != nil {
				return st, fmt.Errorf("Q%s over the wire: %w", qid, err)
			}
		}
	}
	return st, nil
}

// close tears the stand down: connections, server, engine, spill files.
func (st *stand) close() {
	for _, c := range st.conns {
		c.Close()
	}
	if st.srv != nil {
		st.srv.Close()
		<-st.served
	}
	if st.eng != nil {
		st.eng.Close()
	}
	if st.spillDir != "" {
		os.RemoveAll(st.spillDir)
	}
}

// An oracle holds each query's reference rows from the independent
// column-at-a-time engine, in the SQL statements' column order, sorted.
type oracle map[string][][]uint64

func buildOracle(ds *ssb.Dataset) (oracle, error) {
	o := oracle{}
	for _, qid := range ssb.QueryIDs {
		res, err := ds.RunColumn(qid)
		if err != nil {
			return nil, fmt.Errorf("Q%s on the column engine: %w", qid, err)
		}
		o[qid] = sortRows(res.Rows)
	}
	return o, nil
}

// sqlColumns maps the SQL SELECT-item order of each query onto the
// column engine's row layout (identity where they agree).
var sqlColumns = map[string][]int{
	"2.1": {1, 2, 0}, "2.2": {1, 2, 0}, "2.3": {1, 2, 0}, // [sum, year, brand] → [year, brand, sum]
}

// check reports whether rows, as the engine returned them, equal the
// reference bit for bit as a multiset of rows.
func (o oracle) check(qid string, rows [][]uint64) bool {
	want := o[qid]
	if len(rows) != len(want) {
		return false
	}
	got := rows
	if cols := sqlColumns[qid]; cols != nil {
		got = make([][]uint64, len(rows))
		for i, r := range rows {
			if len(r) != len(cols) {
				return false
			}
			got[i] = make([]uint64, len(cols))
			for j, c := range cols {
				got[i][j] = r[c]
			}
		}
	}
	got = sortRows(got)
	for i := range got {
		if !slices.Equal(got[i], want[i]) {
			return false
		}
	}
	return true
}

// sortRows returns the rows in lexicographic order (a sorted copy of
// the outer slice; the rows themselves are shared).
func sortRows(rows [][]uint64) [][]uint64 {
	out := slices.Clone(rows)
	slices.SortFunc(out, slices.Compare[[]uint64])
	return out
}
