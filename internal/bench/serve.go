package bench

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"qppt"
	"qppt/internal/core"
	"qppt/internal/ssb"
	"qppt/internal/wire"
	"qppt/internal/wire/client"
)

// ServeRow is one serving-tier benchmark configuration: N concurrent
// wire-protocol clients driving the 13-query SSB suite through one
// engine, with the admission gate and per-connection statement caches
// in the path.
type ServeRow struct {
	Clients  int `json:"clients"`
	MaxPlans int `json:"maxplans,omitempty"`
	// Queries counts completed queries across all clients; Shed the
	// queries the admission gate rejected with ErrOverloaded.
	Queries int64 `json:"queries"`
	Shed    int64 `json:"shed,omitempty"`
	// Millis is the wall clock for the whole run, QPS the completed
	// queries per second it implies.
	Millis float64 `json:"millis"`
	QPS    float64 `json:"qps"`
	// AvgWaitMicros is the mean admission-queue wait of the queries that
	// queued; StmtHits the statement-cache hits the run produced.
	AvgWaitMicros float64 `json:"avg_wait_micros,omitempty"`
	StmtHits      int64   `json:"stmt_hits"`
}

// ServeBench sweeps concurrent client counts over the serving tier: a
// fresh engine + wire server per row, clients connected over in-process
// pipes, each running the full SSB suite `passes` times. exec supplies
// the engine's execution configuration; maxPlans>0 enables the
// admission gate.
//
// Queue waits appear only when query executions overlap at the gate. On
// a single-CPU machine with a scale factor small enough that every
// query is pure in-memory compute, admission arrivals serialize behind
// the running plan and AvgWaitMicros stays 0 — that is the engine
// keeping up, not the gate malfunctioning. Larger scale factors, spill
// budgets, or more processors all produce the overlap that queues.
func ServeBench(ds *ssb.Dataset, exec core.Options, maxPlans int, clientCounts []int, passes int) ([]ServeRow, error) {
	rows := make([]ServeRow, 0, len(clientCounts))
	for _, n := range clientCounts {
		row, err := serveOnce(ds, exec, maxPlans, n, passes)
		if err != nil {
			return nil, fmt.Errorf("serve bench with %d clients: %w", n, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func serveOnce(ds *ssb.Dataset, exec core.Options, maxPlans, clients, passes int) (ServeRow, error) {
	eng, err := qppt.New(qppt.Config{
		Workers:          exec.Workers,
		MorselsPerWorker: exec.MorselsPerWorker,
		BufferSize:       exec.BufferSize,
		MemBudget:        exec.MemBudget,
		DisableFusion:    exec.NoFuse,
		ProbeBatch:       exec.ProbeBatch,
		MaxPlans:         maxPlans,
	})
	if err != nil {
		return ServeRow{}, err
	}
	defer eng.Close()
	srv := wire.NewServer(eng, ds.Cat)
	defer srv.Close()

	// Warm pass: build the plans' base indexes once so the timed run
	// measures serving, not first-touch catalog work.
	warm, err := client.NewPipe(srv)
	if err != nil {
		return ServeRow{}, err
	}
	for _, qid := range ssb.QueryIDs {
		if _, err := warm.Query(ssb.SQLTexts[qid]); err != nil {
			warm.Close()
			return ServeRow{}, err
		}
	}
	warm.Close()
	base := eng.Stats() // exclude the warm pass from the counters

	conns := make([]*client.Conn, clients)
	for i := range conns {
		if conns[i], err = client.NewPipe(srv); err != nil {
			return ServeRow{}, err
		}
		defer conns[i].Close()
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		done     int64
		shed     int64
		firstErr error
	)
	t0 := time.Now()
	for _, cc := range conns {
		wg.Add(1)
		go func(cc *client.Conn) {
			defer wg.Done()
			for p := 0; p < passes; p++ {
				for _, qid := range ssb.QueryIDs {
					_, err := cc.Query(ssb.SQLTexts[qid])
					mu.Lock()
					switch {
					case err == nil:
						done++
					case errors.Is(err, qppt.ErrOverloaded):
						shed++
					default:
						if firstErr == nil {
							firstErr = fmt.Errorf("%s: %w", qid, err)
						}
					}
					mu.Unlock()
				}
			}
		}(cc)
	}
	wg.Wait()
	wall := time.Since(t0)
	if firstErr != nil {
		return ServeRow{}, firstErr
	}

	st := eng.Stats()
	row := ServeRow{
		Clients:  clients,
		MaxPlans: maxPlans,
		Queries:  done,
		Shed:     shed,
		Millis:   float64(wall.Nanoseconds()) / 1e6,
		QPS:      float64(done) / wall.Seconds(),
		StmtHits: st.StmtCache.Hits - base.StmtCache.Hits,
	}
	if waited := st.Admission.Waited - base.Admission.Waited; waited > 0 {
		row.AvgWaitMicros = float64((st.Admission.WaitTime - base.Admission.WaitTime).Microseconds()) / float64(waited)
	}
	return row, nil
}
