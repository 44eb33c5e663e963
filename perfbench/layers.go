package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"qppt"
	"qppt/internal/core"
	"qppt/internal/ssb"
)

// A tracedRun is what a traced run collects: its untraced and traced
// halves, the set-up spans and the traced half's spans with their self
// times, engine snapshots before and after the traced half and after
// the count pass, runtime memory stats around the traced half, and the
// count pass's plan stats.
type tracedRun struct {
	gen         time.Duration // separate ssb.Generate call
	plain, p    *phase
	setupSpans  []span
	spans       []span
	self        []time.Duration
	e0, e1, e2  qppt.Stats
	m0, m1      runtime.MemStats
	plans       []*core.PlanStats
	countFailed int
}

// perLayer turns a traced run into the per-layer metrics, layer by
// layer, and checks that the layers add up to the client's wall time.
func perLayer(w workload, r *tracedRun) *result {
	res := &result{
		attempted: r.plain.attempted + r.p.attempted + len(r.plans),
		failed:    r.plain.failed + r.p.failed + r.countFailed,
	}
	p, spans, self := r.p, r.spans, r.self
	sum, count := layerSums(spans, self)
	setupSum, _ := layerSums(r.setupSpans, selfTimes(r.setupSpans))

	// ssb / catalog
	res.add("ssb.generate_s", r.gen.Seconds(), "s", "separate ssb.Generate call")
	res.add("ssb.load_s", (setupSum["ssb.load"] - r.gen).Seconds(), "s", "ssb.Load minus generation: catalog load and base-index builds")
	// sql
	res.add("sql.cold_prepare_s", setupSum["sql.cold_prepare"].Seconds(), "s", "first Prepare of the 13 queries")
	ad, ad0 := r.e1.Admission, r.e0.Admission
	sc1, sc0 := r.e1.StmtCache, r.e0.StmtCache
	if w.open {
		// Over the wire the server plans; only a statement-cache miss plans.
		res.add("sql.prepare_busy_s", 0, "s", "planning happens only on statement-cache misses")
		res.add("sql.prepares", float64(sc1.Misses-sc0.Misses), "count", "statement-cache misses")
	} else {
		res.add("sql.prepare_busy_s", sum["sql.prepare"].Seconds(), "s", "")
		res.add("sql.prepares", float64(count["sql.prepare"]), "count", "")
	}
	res.add("stmtcache.hits", float64(sc1.Hits-sc0.Hits), "count", "")
	res.add("stmtcache.misses", float64(sc1.Misses-sc0.Misses), "count", "")
	// admission
	wait := ad.WaitTime - ad0.WaitTime
	res.add("admission.wait_s", wait.Seconds(), "s", "")
	res.add("admission.waited", float64(ad.Waited-ad0.Waited), "count", "")
	res.add("admission.rejected", float64(ad.Rejected-ad0.Rejected), "count", "")
	// core
	runByQuery := make([][]float64, len(ssb.QueryIDs))
	var busy time.Duration
	if w.open {
		for i, d := range p.server {
			if !math.IsInf(p.lat[i], 1) {
				runByQuery[p.qid[i]] = append(runByQuery[p.qid[i]], float64(d)/1e6)
				busy += d
			}
		}
		busy -= wait
	} else {
		busy = sum["core.run"]
		k := 0
		for i, s := range spans {
			if s.Name == "core.run" && k < len(p.qid) {
				runByQuery[p.qid[k]] = append(runByQuery[p.qid[k]], float64(self[i])/1e6)
				k++
			}
		}
	}
	res.add("core.run_busy_s", busy.Seconds(), "s", "")
	for qi, qid := range ssb.QueryIDs {
		res.add("core.run_ms.q"+qid[:1]+"_"+qid[2:], quantile(runByQuery[qi], 0.5), "ms", fmt.Sprintf("median, n=%d", len(runByQuery[qi])))
	}
	var fused, indexed, streamed, lookups, kdesc, sdesc, batches int
	fill := 0.0
	for _, ps := range r.plans {
		fused += ps.FusedEdges
		for _, op := range ps.Ops {
			indexed += op.TuplesIndexed
			streamed += op.TuplesStreamed
			lookups += op.ProbeLookups
			kdesc += op.KernelDescents
			sdesc += op.ScalarDescents
			batches += op.ProbeBatches
			fill += op.AvgBatchFill * float64(op.ProbeBatches)
		}
	}
	pass := "per pass of the 13 queries"
	res.add("core.fused_edges", float64(fused), "count", pass)
	res.add("core.tuples_indexed", float64(indexed), "count", pass)
	res.add("core.tuples_streamed", float64(streamed), "count", pass)
	// prefixtree / kisstree / kernel
	res.add("tree.probe_lookups", float64(lookups), "count", pass)
	res.add("tree.kernel_descents", float64(kdesc), "count", pass)
	res.add("tree.scalar_descents", float64(sdesc), "count", pass)
	res.add("tree.probe_batches", float64(batches), "count", pass)
	res.add("tree.avg_batch_fill", ratio(fill, float64(batches)), "count", pass)
	// spill and arena, engine deltas over the count pass (alone, so exact)
	sp, sp0 := r.e2.Spill, r.e1.Spill
	res.add("spill.spills", float64(sp.Spills-sp0.Spills), "count", pass)
	res.add("spill.restores", float64(sp.Restores-sp0.Restores), "count", pass)
	res.add("spill.bytes_out", float64(sp.SpillBytes-sp0.SpillBytes), "bytes", pass)
	res.add("spill.bytes_in", float64(sp.RestoreBytes-sp0.RestoreBytes), "bytes", pass)
	res.add("spill.bytes_read", float64(sp.RestoreBytesRead-sp0.RestoreBytesRead), "bytes", pass)
	rc, rc0 := r.e2.Recycler, r.e1.Recycler
	res.add("arena.chunks_reused", float64(rc.Reused-rc0.Reused), "count", pass)
	res.add("arena.reuse_ratio", ratio(float64(rc.Reused-rc0.Reused), float64(rc.Recycled-rc0.Recycled)), "ratio", "reused / parked, "+pass)
	res.add("arena.trim_evicted", float64(rc.TrimEvicted-rc0.TrimEvicted), "count", pass)
	// wire
	var overhead []float64
	for i, d := range p.rtt {
		if !math.IsInf(p.lat[i], 1) {
			overhead = append(overhead, float64(d-p.server[i])/1e6)
		}
	}
	res.add("wire.overhead_ms_p50", quantile(overhead, 0.5), "ms", fmt.Sprintf("round trip minus server time, n=%d", len(overhead)))
	res.add("wire.overhead_ms_p90", quantile(overhead, 0.9), "ms", fmt.Sprintf("n=%d", len(overhead)))
	res.add("wire.client_queue_ms_p90", quantile(p.queue, 0.9), "ms", fmt.Sprintf("n=%d", len(p.queue)))
	// Go runtime, over the traced phase
	res.add("go.gc_cycles", float64(r.m1.NumGC-r.m0.NumGC), "count", "")
	res.add("go.gc_pause_ms", float64(r.m1.PauseTotalNs-r.m0.PauseTotalNs)/1e6, "ms", "")
	res.add("go.alloc_mb", float64(r.m1.TotalAlloc-r.m0.TotalAlloc)/(1<<20), "MiB", "")
	// harness
	res.add("bench.generator_lag_ms_p90", quantile(p.lag, 0.9), "ms", fmt.Sprintf("n=%d", len(p.lag)))
	res.add("bench.trace_overhead_ratio", ratio(r.plain.qps(), p.qps()), "ratio", "untraced / traced throughput")
	root := "bench.query"
	if w.open {
		root = "bench.request"
	}
	cov := quantile(coverage(spans, self, root), 0.5)
	res.add("bench.layer_coverage", cov, "ratio", "median over queries of layer self time / client wall time")
	if cov < minCoverage || cov > 1+1e-9 {
		res.invalid = append(res.invalid, fmt.Sprintf("layer spans cover %.3f of client wall time, want [%.2f, 1]", cov, minCoverage))
	}
	checkOpenLoop(w, r.plain, res)
	checkOpenLoop(w, p, res)
	return res
}
