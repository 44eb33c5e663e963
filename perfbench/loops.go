package main

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qppt"
	"qppt/internal/core"
	"qppt/internal/sql"
	"qppt/internal/ssb"
)

// A phase is what one measured stretch of a workload observed. Latency
// samples are in request order; a failed request's latency is +Inf.
type phase struct {
	elapsed   time.Duration
	attempted int
	failed    int
	lat       []float64 // ms
	qid       []int     // index into ssb.QueryIDs, per sample

	// Open loop only: how late the generator woke for each request it
	// waited for, and per request how long it waited for a free
	// connection after its due time, the server's reported execution
	// time and the client round trip (both 0 for a failed request).
	lag    []float64 // ms
	queue  []float64 // ms
	server []time.Duration
	rtt    []time.Duration
}

// ok counts the requests that completed correctly.
func (p *phase) ok() int { return p.attempted - p.failed }

// merge appends q's samples to p, as one longer phase: the fields the
// end-to-end metrics and the open-loop lag check read.
func (p *phase) merge(q *phase) {
	p.elapsed += q.elapsed
	p.attempted += q.attempted
	p.failed += q.failed
	p.lat = append(p.lat, q.lat...)
	p.qid = append(p.qid, q.qid...)
	p.lag = append(p.lag, q.lag...)
}

// qps is completed requests per second of the phase.
func (p *phase) qps() float64 { return float64(p.ok()) / p.elapsed.Seconds() }

// closedLoop runs passes over the 13 SSB queries on the stand's
// in-process session, each pass in a seeded shuffled order, until dur
// has passed and the current pass is complete. Traced, each query is
// split into its Prepare and Run calls (Session.Query is exactly those
// two) and runs with engine stats on.
func closedLoop(ctx context.Context, st *stand, o oracle, rng *rand.Rand, dur time.Duration, tr *tracer) *phase {
	p := &phase{}
	t0 := time.Now()
	for time.Since(t0) < dur {
		for _, qi := range rng.Perm(len(ssb.QueryIDs)) {
			qid := ssb.QueryIDs[qi]
			var rows [][]uint64
			var err error
			start := time.Now()
			if tr == nil {
				var r *sql.Rows
				r, _, err = st.sess.Query(ctx, ssb.SQLTexts[qid])
				if err == nil {
					rows = r.Rows
				}
			} else {
				rows, err = tracedQuery(ctx, st.sess, qid, tr)
			}
			lat := float64(time.Since(start)) / 1e6
			p.attempted++
			p.qid = append(p.qid, qi)
			if err != nil || !o.check(qid, rows) {
				p.failed++
				lat = math.Inf(1)
			}
			p.lat = append(p.lat, lat)
		}
	}
	p.elapsed = time.Since(t0)
	return p
}

// tracedQuery is Session.Query with a span around each layer call.
// The engine reports the run's admission wait afterwards; it becomes a
// child span at the start of the run.
func tracedQuery(ctx context.Context, sess *qppt.Session, qid string, tr *tracer) ([][]uint64, error) {
	req := tr.request()
	root := tr.begin("bench.query", req, -1)
	defer tr.end(root)
	id := tr.begin("sql.prepare", req, root)
	stmt, err := sess.Prepare(ctx, ssb.SQLTexts[qid], qppt.WithStats())
	tr.end(id)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	id = tr.beginAt("core.run", req, root, start)
	rows, ps, err := stmt.Run(ctx)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	tr.add("admission.wait", req, id, start, start.Add(ps.AdmissionWait))
	return rows.Rows, nil
}

// A schedule is an open loop's arrivals, fixed before the run starts:
// due times after the loop's start and the query each one sends.
type schedule struct {
	due []time.Duration
	qi  []int
	dur time.Duration
}

// newSchedule draws rate×dur Poisson arrivals over dur: a fixed count
// placed uniformly at random is a Poisson process conditioned on its
// count, which keeps the offered load equal across seeds. Queries are
// drawn uniformly, balanced in shuffled blocks of 13.
func newSchedule(rng *rand.Rand, rate float64, dur time.Duration) schedule {
	n := int(math.Round(rate * dur.Seconds()))
	s := schedule{due: make([]time.Duration, n), qi: make([]int, 0, n+len(ssb.QueryIDs)), dur: dur}
	for i := range s.due {
		s.due[i] = time.Duration(rng.Int63n(int64(dur)))
	}
	sort.Slice(s.due, func(a, b int) bool { return s.due[a] < s.due[b] })
	for len(s.qi) < n {
		s.qi = append(s.qi, rng.Perm(len(ssb.QueryIDs))...)
	}
	s.qi = s.qi[:n]
	return s
}

// openLoop sends the schedule's requests over the stand's connections,
// one client goroutine per connection. A free client takes the next
// request in schedule order and waits for its due time; a request whose
// due time passes while every connection is busy waits for the next free
// one. Latency runs from the due time, so a stall is charged to every
// request it delays.
func openLoop(st *stand, o oracle, s schedule, tr *tracer) *phase {
	n := len(s.due)
	lat, queue := make([]float64, n), make([]float64, n)
	lag := make([]float64, n)
	slept := make([]bool, n)
	failed := make([]bool, n)
	server, rtt := make([]time.Duration, n), make([]time.Duration, n)
	done := make([]time.Time, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now().Add(20 * time.Millisecond)
	for _, c := range st.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := t0.Add(s.due[i])
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
					slept[i] = true
					lag[i] = float64(time.Since(due)) / 1e6
				}
				qid := ssb.QueryIDs[s.qi[i]]
				req := tr.request()
				root := tr.beginAt("bench.request", req, -1, due)
				send := time.Now()
				if !slept[i] {
					queue[i] = float64(send.Sub(due)) / 1e6
					tr.add("client.queue", req, root, due, send)
				} else {
					tr.add("bench.generator_lag", req, root, due, send)
				}
				id := tr.begin("wire.roundtrip", req, root)
				res, err := c.Query(ssb.SQLTexts[qid])
				done[i] = time.Now()
				tr.endAt(id, done[i])
				tr.endAt(root, done[i])
				rtt[i] = done[i].Sub(send)
				if err != nil || !o.check(qid, res.Rows) {
					failed[i] = true
					lat[i] = math.Inf(1)
					continue
				}
				server[i] = res.Elapsed
				tr.add("server.run", req, id, done[i].Add(-res.Elapsed), done[i])
				lat[i] = float64(done[i].Sub(due)) / 1e6
			}
		}()
	}
	wg.Wait()
	p := &phase{attempted: n, lat: lat, queue: queue, qid: s.qi, server: server, rtt: rtt}
	var end time.Time
	for i := range done {
		if failed[i] {
			p.failed++
		}
		if slept[i] {
			p.lag = append(p.lag, lag[i])
		}
		if done[i].After(end) {
			end = done[i]
		}
	}
	p.elapsed = end.Sub(t0)
	return p
}

// countPass runs the 13 queries once, in benchmark order, on the stand's
// in-process session with engine stats on, and returns their plan stats:
// the per-pass counts of the traced run. Alone on the engine, every
// per-plan counter is exact.
func countPass(ctx context.Context, st *stand, o oracle) ([]*core.PlanStats, int, error) {
	var out []*core.PlanStats
	failed := 0
	for _, qid := range ssb.QueryIDs {
		rows, ps, err := st.sess.Query(ctx, ssb.SQLTexts[qid], qppt.WithStats())
		if err != nil {
			return nil, 0, err
		}
		if !o.check(qid, rows.Rows) {
			failed++
		}
		out = append(out, ps)
	}
	return out, failed, nil
}
