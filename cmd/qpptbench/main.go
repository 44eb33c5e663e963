// Command qpptbench regenerates the paper's evaluation figures.
//
// Usage:
//
//	qpptbench -fig 3a|3b|7|8|9|joinbuffer|workers|kprime|compression|duplicates|batch|memlife|fusion|probe|engine|serve|all
//	          [-sf 0.5] [-reps 3] [-sizes 1000000,4000000,16000000]
//	          [-workers N] [-morsels M] [-buffer B] [-membudget 256MiB]
//	          [-recycle]
//	          [-benchjson BENCH_qppt.json] [-benchlabel PR-5]
//
// -benchjson appends a machine-readable perf snapshot (per-query ms, the
// memory-lifecycle ablation) to the snapshot history in the given file,
// so the perf trajectory accumulates across PRs; -benchlabel names the
// snapshot. A pre-history file holding a single snapshot object is
// absorbed as the first history entry, and the retired arena-vs-pointer
// layout and SWAR-kernel rows and mmap-thaw flags of older snapshots are
// preserved verbatim.
//
// -membudget runs the figure-7 QPPT rows a second time under that
// intermediate-index memory budget (index spilling enabled) and records
// them with a membudget= config label — the spill-enabled configuration of
// the perf trajectory. Accepts plain bytes or K/M/G suffixes. -recycle
// enables the plan-scoped chunk recycler for the QPPT engine rows (and is
// recorded in the config label); -fig memlife runs the dedicated
// memory-lifecycle ablation (allocs, GC pause, thaw bytes read) across
// the baseline, recycler and spill configurations;
// -fig fusion compares fused and materialized execution of the suite on
// the decomposed plans (fused-edge counts, streamed combinations, and a
// bit-identity check per query); -fig probe isolates the batched probe
// forwarding inside fused chains (batched vs scalar vs materialized, with
// batch counts and average fill). -nofuse turns pipeline fusion off for
// every other figure's QPPT rows; -probebatch sets the probe-forward
// batch size they run with (1 = scalar).
//
// -workers > 1 runs the QPPT engine rows of figures 7, 8 and 9 on a
// shared worker pool of that size (morsel-driven parallelism); -morsels
// tunes the per-worker morsel fan-out. The baselines always run
// single-threaded, and the ablations control their own configuration
// (the workers ablation sweeps the pool size itself).
//
// -fig engine times the thirteen-query suite one-shot (per-plan pools)
// against engine-reused execution (one core.Env across the suite, the
// qppt.Engine configuration) and records both row sets in the snapshot —
// the cross-plan resource-reuse trajectory of the Engine/Session API.
//
// -fig serve drives the serving tier: sweeps of concurrent wire-protocol
// clients (in-process pipes, full handshake/framing) running the suite
// through one engine, reporting throughput, admission-queue waits and
// statement-cache hits. -max-plans enables the admission gate for the
// sweep; -reps sets the passes per client.
//
// Absolute numbers will differ from the paper's C/C++ system; the point
// is to reproduce the shapes: who wins, by roughly what factor, and where
// the crossovers fall. EXPERIMENTS.md records paper-vs-measured values.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"qppt"
	"qppt/internal/bench"
	"qppt/internal/cliflags"
	"qppt/internal/spill"
	"qppt/internal/ssb"
)

// benchSnapshot is one perf record. -benchjson appends it to the snapshot
// history so per-PR records accumulate into a perf trajectory.
type benchSnapshot struct {
	Label     string  `json:"label,omitempty"`
	When      string  `json:"when,omitempty"`
	SF        float64 `json:"sf"`
	Workers   int     `json:"workers"`
	GoMaxP    int     `json:"gomaxprocs"`
	MemBudget int64   `json:"membudget,omitempty"`
	Recycle   bool    `json:"recycle,omitempty"`
	// RetiredMmap, Layout and Kernel carry the retired mmap-thaw flag and
	// the arena-vs-pointer and SWAR-kernel ablations of older snapshots
	// verbatim, so appending never rewrites recorded history.
	RetiredMmap json.RawMessage    `json:"mmapthaw,omitempty"`
	Queries     []bench.QueryTime  `json:"queries,omitempty"`
	Layout      json.RawMessage    `json:"layout,omitempty"`
	MemLife     []bench.MemLifeRow `json:"memlife,omitempty"`
	Fusion      []bench.FusionRow  `json:"fusion,omitempty"`
	Probe       []bench.ProbeRow   `json:"probe,omitempty"`
	Kernel      json.RawMessage    `json:"kernel,omitempty"`
	Serve       []bench.ServeRow   `json:"serve,omitempty"`
}

// benchHistory is the BENCH_qppt.json layout: snapshots in append order.
type benchHistory struct {
	Snapshots []benchSnapshot `json:"snapshots"`
}

// appendSnapshot loads the history at path (absorbing a legacy single-
// snapshot file), appends snap, and writes it back. An existing file that
// cannot be read or parsed is an error — silently replacing it would
// discard the accumulated perf trajectory.
func appendSnapshot(path string, snap benchSnapshot) error {
	var hist benchHistory
	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		// First snapshot: start a fresh history.
	case err != nil:
		return fmt.Errorf("read %s: %w", path, err)
	default:
		if jerr := json.Unmarshal(data, &hist); jerr != nil || len(hist.Snapshots) == 0 {
			var legacy benchSnapshot
			if jerr2 := json.Unmarshal(data, &legacy); jerr2 == nil && (legacy.Queries != nil || len(legacy.Layout) > 0) {
				hist.Snapshots = []benchSnapshot{legacy}
			} else if jerr != nil {
				return fmt.Errorf("parse %s (refusing to overwrite history): %w", path, jerr)
			}
		}
	}
	hist.Snapshots = append(hist.Snapshots, snap)
	out, err := json.MarshalIndent(&hist, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 3a, 3b, 7, 8, 9, joinbuffer, workers, kprime, compression, duplicates, batch, memlife, fusion, probe, engine, serve, all")
	sf := flag.Float64("sf", 0.5, "SSB scale factor for figures 7-9 (the paper uses 15)")
	reps := flag.Int("reps", 3, "repetitions per query timing (best-of)")
	sizesFlag := flag.String("sizes", "1000000,4000000,16000000", "index sizes for figure 3")
	seed := flag.Int64("seed", 42, "data generator seed")
	execFlags := cliflags.Register(flag.CommandLine)
	benchjson := flag.String("benchjson", "", "append a JSON perf snapshot (query times, memory-lifecycle ablation) to the history in this file")
	benchlabel := flag.String("benchlabel", "", "label for the appended perf snapshot (e.g. the PR number)")
	flag.Parse()
	execAll, err := execFlags.ExecOptions()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad flags: %v\n", err)
		os.Exit(2)
	}
	// The unbudgeted figure rows run without spilling; the -membudget
	// configuration is timed as its own row set where a figure asks for it.
	budget := execAll.MemBudget
	exec := execAll
	exec.MemBudget = 0
	snap := benchSnapshot{
		Label: *benchlabel, When: time.Now().UTC().Format(time.RFC3339),
		SF: *sf, Workers: exec.Workers, GoMaxP: runtime.GOMAXPROCS(0), MemBudget: budget,
		Recycle: exec.Recycle,
	}

	var sizes []int
	for _, s := range strings.Split(*sizesFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -sizes entry %q: %v\n", s, err)
			os.Exit(2)
		}
		sizes = append(sizes, n)
	}

	// -fig accepts a single figure name, "all", or a comma-separated list
	// (e.g. -fig 7,layout for one perf snapshot covering both).
	wants := func(name string) bool {
		for _, f := range strings.Split(*fig, ",") {
			if f = strings.TrimSpace(f); f == "all" || f == name {
				return true
			}
		}
		return false
	}
	var ds *ssb.Dataset
	dataset := func() *ssb.Dataset {
		if ds == nil {
			fmt.Printf("loading SSB SF=%g (seed %d)...\n", *sf, *seed)
			ds = ssb.MustLoad(ssb.GenConfig{SF: *sf, Seed: *seed})
			if err := bench.WarmupQueries(ds); err != nil {
				fatal(err)
			}
			fmt.Printf("loaded: %d lineorder rows\n\n", ds.Lineorder.Rows())
		}
		return ds
	}

	if wants("3a") {
		fmt.Println("=== Figure 3(a): insert/update performance [ns/key] ===")
		printFig3(bench.Figure3a(sizes))
	}
	if wants("3b") {
		fmt.Println("=== Figure 3(b): lookup performance [ns/key] ===")
		printFig3(bench.Figure3b(sizes))
	}
	if wants("7") {
		fmt.Printf("=== Figure 7: SSB query performance, SF=%g [ms] ===\n", *sf)
		rows, err := bench.Figure7Exec(dataset(), *reps, exec)
		if err != nil {
			fatal(err)
		}
		printQueryTimes(rows)
		snap.Queries = append(snap.Queries, rows...)
		if budget > 0 {
			fmt.Printf("=== Figure 7 (QPPT rows) under -membudget %s (index spilling) [ms] ===\n", execFlags.MemBudget)
			spillExec := exec
			spillExec.MemBudget = budget
			cfgLabel := fmt.Sprintf("membudget=%s", execFlags.MemBudget)
			if exec.Recycle {
				cfgLabel += ",recycle"
			}
			srows, err := bench.QPPTTimes(dataset(), *reps, spillExec, cfgLabel)
			if err != nil {
				fatal(err)
			}
			printQueryTimes(srows)
			snap.Queries = append(snap.Queries, srows...)
		}
	}
	if wants("8") {
		fmt.Println("=== Figure 8: SSB Q1.1 with and without select-join [ms] ===")
		rows, err := bench.Figure8Exec(dataset(), *reps, exec)
		if err != nil {
			fatal(err)
		}
		printQueryTimes(rows)
		share, err := bench.Figure8SelectionShare(dataset())
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  selection share of the w/o-select-join plan: %.0f%% (paper: ~95%%)\n\n", share*100)
	}
	if wants("9") {
		fmt.Println("=== Figure 9: SSB Q4.1 multi-way join configurations [ms] ===")
		rows, err := bench.Figure9Exec(dataset(), *reps, exec)
		if err != nil {
			fatal(err)
		}
		printQueryTimes(rows)
	}
	if wants("workers") {
		fmt.Println("=== Ablation: shared worker pool size (morsel-driven parallelism, Section 7) [ms] ===")
		rows, err := bench.AblationWorkers(dataset(), *reps)
		if err != nil {
			fatal(err)
		}
		printQueryTimes(rows)
	}
	if wants("joinbuffer") {
		fmt.Println("=== Ablation: joinbuffer size on Q2.3 (demonstrator knob) [ms] ===")
		rows, err := bench.AblationJoinBuffer(dataset(), *reps)
		if err != nil {
			fatal(err)
		}
		printQueryTimes(rows)
	}
	if wants("kprime") {
		fmt.Println("=== Ablation: prefix length k' (Section 2.1) ===")
		n := min(sizes[0], 2000000)
		for _, r := range bench.AblationKPrime(n) {
			fmt.Printf("  k'=%d %-6s  insert %7.1f ns/key  lookup %7.1f ns/key  %6.1f B/key\n",
				r.KPrime, r.Dist, r.InsertNs, r.LookupNs, r.BytesPerKey)
		}
		fmt.Println()
	}
	if wants("compression") {
		fmt.Println("=== Ablation: KISS bitmask compression (Section 2.2) ===")
		n := min(sizes[0], 2000000)
		for _, r := range bench.AblationKISSCompression(n) {
			fmt.Printf("  %-6s compress=%-5v  insert %7.1f ns/key  %8.2f MB  RCU copies %d\n",
				r.Dist, r.Compress, r.InsertNs, float64(r.Bytes)/1e6, r.RCUCopies)
		}
		fmt.Println()
	}
	if wants("duplicates") {
		fmt.Println("=== Ablation: duplicate handling (Section 2.4, Figure 4) ===")
		for _, r := range bench.AblationDuplicates(1000000, 2, 5) {
			fmt.Printf("  %-20s scan %6.2f ns/row  %8.2f MB\n",
				r.Layout, r.ScanNs, float64(r.Bytes)/1e6)
		}
		fmt.Println()
	}
	if wants("batch") {
		fmt.Println("=== Ablation: batch lookup size (Section 2.3) ===")
		n := min(sizes[len(sizes)-1], 8000000)
		for _, r := range bench.AblationBatchSize(n) {
			fmt.Printf("  batch %5d  lookup %7.1f ns/key\n", r.BatchSize, r.LookupNs)
		}
		fmt.Println()
	}
	if wants("engine") {
		fmt.Println("=== Engine reuse: 13-query suite, one-shot vs engine-reused (shared pool + cross-plan recycler) [ms] ===")
		recycleCap, err := execFlags.RecycleCapBytes()
		if err != nil {
			fatal(err)
		}
		if recycleCap == 0 {
			// Match a default-configured qppt.Engine, whose session pool is
			// capped — an unbounded pool would overstate reuse at scale.
			recycleCap = qppt.DefaultRecycleCap
		}
		// Unlike the fig-7 rows, the engine comparison honors -membudget
		// directly: the point is the full engine configuration, and the
		// row labels record the budgeted runs.
		rows, reuse, err := bench.EngineReuseCompare(dataset(), *reps, execAll, recycleCap)
		if err != nil {
			fatal(err)
		}
		printQueryTimes(rows)
		fmt.Printf("  engine recycler after the suite: %d chunks reused across plans, %s of allocation avoided\n\n",
			reuse.Reused, spill.FormatBytes(reuse.SavedBytes))
		snap.Queries = append(snap.Queries, rows...)
	}
	if wants("serve") {
		fmt.Println("=== Serving tier: concurrent wire-protocol clients over one engine (13-query suite) ===")
		rows, err := bench.ServeBench(dataset(), execAll, execFlags.MaxPlans, []int{1, 2, 4, 8}, *reps)
		if err != nil {
			fatal(err)
		}
		for _, r := range rows {
			gate := "gate off"
			if r.MaxPlans > 0 {
				gate = fmt.Sprintf("max-plans %d", r.MaxPlans)
			}
			fmt.Printf("  %2d clients  %-12s %9.1f ms  %8.1f q/s  avg queue wait %8.1f µs  stmt-cache hits %5d  shed %d\n",
				r.Clients, gate, r.Millis, r.QPS, r.AvgWaitMicros, r.StmtHits, r.Shed)
		}
		fmt.Println()
		snap.Serve = rows
	}
	if wants("memlife") {
		fmt.Println("=== Ablation: plan memory lifecycle (recycler, spill) over the SSB suite ===")
		rows, err := bench.AblationMemLifecycle(dataset(), *reps)
		if err != nil {
			fatal(err)
		}
		for _, r := range rows {
			fmt.Printf("  %-24s %9.1f ms  alloc %8.2f MB (%9d objs)  GC pause %6.2f ms (%3d cycles)  thaw-read %10s  reused %6d chunks (%s saved)\n",
				r.Config, r.Millis, float64(r.AllocBytes)/1e6, r.Allocs,
				float64(r.GCPauseNs)/1e6, r.NumGC, spill.FormatBytes(r.ThawBytesRead),
				r.ChunksReused, spill.FormatBytes(r.SavedBytes))
		}
		fmt.Println()
		snap.MemLife = rows
	}
	if wants("fusion") {
		fmt.Println("=== Ablation: pipeline fusion vs materialized intermediates (decomposed plans) over the SSB suite [ms] ===")
		rows, err := bench.AblationFusion(dataset(), *reps)
		if err != nil {
			fatal(err)
		}
		for _, r := range rows {
			fmt.Printf("  Q%-4s fused %8.1f ms  materialized %8.1f ms  %d indexes skipped  %9d combinations streamed  identical=%v\n",
				r.Query, r.FusedMillis, r.UnfusedMillis, r.FusedEdges, r.TuplesStreamed, r.Identical)
		}
		fmt.Println()
		snap.Fusion = rows
	}
	if wants("probe") {
		fmt.Println("=== Ablation: batched vs scalar probe forwarding in fused chains (decomposed plans) over the SSB suite [ms] ===")
		rows, err := bench.AblationProbe(dataset(), *reps)
		if err != nil {
			fatal(err)
		}
		for _, r := range rows {
			fmt.Printf("  Q%-4s batched %8.1f ms  scalar %8.1f ms  materialized %8.1f ms  %6d batches (avg fill %6.1f)  identical=%v\n",
				r.Query, r.BatchedMillis, r.ScalarMillis, r.MaterializedMillis, r.ProbeBatches, r.AvgBatchFill, r.Identical)
		}
		fmt.Println()
		snap.Probe = rows
	}
	if *benchjson != "" {
		if err := appendSnapshot(*benchjson, snap); err != nil {
			fatal(err)
		}
		fmt.Printf("appended perf snapshot to %s\n", *benchjson)
	}
}

func printFig3(rows []bench.Fig3Row) {
	bySize := map[int][]bench.Fig3Row{}
	var sizes []int
	for _, r := range rows {
		if len(bySize[r.Size]) == 0 {
			sizes = append(sizes, r.Size)
		}
		bySize[r.Size] = append(bySize[r.Size], r)
	}
	fmt.Printf("  %-14s", "structure")
	for _, s := range sizes {
		fmt.Printf(" %10s", humanCount(s))
	}
	fmt.Println()
	for _, structure := range bench.Fig3Structures {
		fmt.Printf("  %-14s", structure)
		for _, s := range sizes {
			for _, r := range bySize[s] {
				if r.Structure == structure {
					fmt.Printf(" %10.1f", r.NsPerKey)
				}
			}
		}
		fmt.Println()
	}
	fmt.Println()
}

func printQueryTimes(rows []bench.QueryTime) {
	for _, r := range rows {
		label := r.Engine
		if r.Config != "" {
			label += " " + r.Config
		}
		fmt.Printf("  Q%-4s %-48s %10.1f ms  (%d rows)\n", r.Query, label, r.Millis, r.Rows)
	}
	fmt.Println()
}

func humanCount(n int) string {
	switch {
	case n%1000000 == 0:
		return fmt.Sprintf("%dM", n/1000000)
	case n%1000 == 0:
		return fmt.Sprintf("%dK", n/1000)
	}
	return strconv.Itoa(n)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qpptbench:", err)
	os.Exit(1)
}
