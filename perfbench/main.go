// Command perfbench is QPPT's end-to-end benchmark. It loads one SSB
// dataset, drives the 13 SSB queries through the engine's public
// surfaces (Session, Stmt, wire.Server and the wire client) under one
// named workload, checks every result against the column-at-a-time
// engine, and prints its metrics as the last line of standard output:
//
//	bash perfbench/run.sh --workload ssb-inproc --seed 42 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// wraps every call into a layer in a span and reports per-layer metrics
// instead. README.md lists the workloads and which layer metric should
// move which end-to-end metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"qppt/internal/ssb"
)

// A workload is one traffic shape over the same dataset.
type workload struct {
	name      string
	open      bool    // open loop over TCP (else closed loop in-process)
	rate      float64 // open-loop arrivals per second
	maxPlans  int     // engine admission cap (0 = no gate)
	memBudget int64   // engine spill budget (0 = no spilling)
}

var workloads = map[string]workload{
	"ssb-inproc":    {name: "ssb-inproc"},
	"ssb-wire-open": {name: "ssb-wire-open", open: true, rate: 10, maxPlans: 1},
	"ssb-spill":     {name: "ssb-spill", memBudget: 1 << 20},
}

const (
	// scaleFactor and dataSeed fix the dataset every run measures: 1.5M
	// lineorder rows. --seed drives only the workload's query orders and
	// arrival schedule, so runs with different seeds do the same work.
	scaleFactor = 0.25
	dataSeed    = 42
	// setUps is how many stands an untraced run sets up and measures in
	// turn; setup_s is the median of their set-up times.
	setUps = 3
	// maxLagP90 is the generator lag beyond which an open-loop run is
	// invalid: it no longer offered the load its schedule promised.
	maxLagP90 = 10 * time.Millisecond
	// minCoverage is how much of a query's client wall time the layer
	// spans must account for.
	minCoverage = 0.95
)

type config struct {
	seed    int64
	seconds int
	workers int
	out     string // directory for spill files, spans and reports
}

// A metric is one named, unit-carrying number of the result.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // sample count or provenance, for the human report
}

// A result is one run's outcome.
type result struct {
	attempted, failed int
	invalid           []string // reasons the run does not count
	metrics           []metric
}

func (r *result) add(name string, v float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name, v, unit, note})
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "ssb-inproc", "workload: ssb-inproc, ssb-wire-open or ssb-spill")
	seed := flag.Int64("seed", 42, "seed for the query orders and the arrival schedule")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for spill files, spans and reports")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg := config{seed: *seed, seconds: *seconds, workers: runtime.NumCPU(), out: *out}
	params := map[string]any{
		"workload": w.name, "seed": cfg.seed, "seconds": cfg.seconds, "trace": *trace,
		"sf": scaleFactor, "data_seed": dataSeed, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "workers": cfg.workers, "rate_qps": w.rate,
		"max_plans": w.maxPlans, "mem_budget_bytes": w.memBudget, "spill_fs": "none",
	}
	if w.memBudget > 0 {
		params["spill_fs"] = fsType(cfg.out)
	}

	ctx := context.Background()
	run := untraced
	if *trace == 1 {
		run = traced
	}
	res, err := run(ctx, w, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return report(params, res, filepath.Join(cfg.out, fmt.Sprintf("result-%s-seed%d-trace%d.json", w.name, cfg.seed, *trace)))
}

// untraced measures the end-to-end metrics. It sets up setUps stands
// one after another and measures an equal share of the run on each; the
// request samples of all stands pool into one phase. Spreading the
// measurement over several set-ups samples several heap layouts and a
// longer stretch of the machine's time.
func untraced(ctx context.Context, w workload, cfg config) (*result, error) {
	var p phase
	var o oracle
	var setup, rss []float64
	rng := rand.New(rand.NewSource(cfg.seed))
	share := time.Duration(cfg.seconds) * time.Second / setUps
	for i := 0; i < setUps; i++ {
		freeMemory()
		t0 := time.Now()
		st, err := setUp(ctx, w, cfg, nil)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
		pi, hwm, err := measureStand(ctx, w, st, &o, rng, share)
		st.close()
		if err != nil {
			return nil, err
		}
		p.merge(pi)
		rss = append(rss, hwm)
	}

	res := &result{attempted: p.attempted, failed: p.failed}
	n := fmt.Sprintf("n=%d", len(p.lat))
	res.add("setup_s", quantile(setup, 0.5), "s", fmt.Sprintf("median of %.4v", setup))
	res.add("throughput_qps", p.qps(), "1/s", fmt.Sprintf("%d ok in %.2fs", p.ok(), p.elapsed.Seconds()))
	res.add("latency_p50_ms", quantile(p.lat, 0.5), "ms", n)
	res.add("latency_p90_ms", quantile(p.lat, 0.9), "ms", n)
	res.add("ssb_geomean_ms", geomeanOfMedians(p.lat, p.qid), "ms", "over the 13 per-query medians")
	res.add("peak_rss_mb", quantile(rss, 0.5), "MiB", fmt.Sprintf("median of %.4v, the VmHWM of each stand's measured phase", rss))
	checkOpenLoop(w, &p, res)
	return res, nil
}

// measureStand measures one stand for dur, building the oracle on first
// use (every stand loads the same dataset), and returns the phase with
// the peak RSS, in MiB, that the phase reached.
func measureStand(ctx context.Context, w workload, st *stand, o *oracle, rng *rand.Rand, dur time.Duration) (*phase, float64, error) {
	if *o == nil {
		var err error
		if *o, err = buildOracle(st.ds); err != nil {
			return nil, 0, err
		}
	}
	freeMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, 0, fmt.Errorf("resetting the peak RSS: %w", err)
	}
	p := measure(ctx, w, st, *o, rng, dur, nil)
	hwm, err := procStatusKB("VmHWM")
	if err != nil {
		return nil, 0, fmt.Errorf("reading the peak RSS: %w", err)
	}
	return p, hwm / 1024, nil
}

// traced sets up once with spans, measures half the time untraced and
// half traced (their throughput ratio is the tracing overhead), then
// runs one count pass for the per-pass counters.
func traced(ctx context.Context, w workload, cfg config) (*result, error) {
	tr := newTracer()
	// ssb.Load generates its data internally; a separate Generate call
	// splits generation from catalog load plus base-index builds.
	t0 := time.Now()
	ssb.Generate(ssb.GenConfig{SF: scaleFactor, Seed: dataSeed})
	gen := time.Since(t0)
	freeMemory()
	st, err := setUp(ctx, w, cfg, tr)
	if err != nil {
		return nil, err
	}
	defer st.close()
	setupSpans := tr.snapshot()
	o, err := buildOracle(st.ds)
	if err != nil {
		return nil, err
	}
	freeMemory()
	rng := rand.New(rand.NewSource(cfg.seed))
	half := time.Duration(cfg.seconds) * time.Second / 2
	plain := measure(ctx, w, st, o, rng, half, nil)

	mark := len(tr.snapshot())
	e0 := st.eng.Stats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p := measure(ctx, w, st, o, rng, half, tr)
	runtime.ReadMemStats(&m1)
	e1 := st.eng.Stats()
	plans, cfailed, err := countPass(ctx, st, o)
	if err != nil {
		return nil, fmt.Errorf("count pass: %w", err)
	}
	e2 := st.eng.Stats()
	if err := tr.write(spanPath(cfg.out, w.name, cfg.seed)); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}

	all := tr.snapshot()
	return perLayer(w, &tracedRun{
		gen: gen, plain: plain, p: p, plans: plans, countFailed: cfailed,
		setupSpans: setupSpans, spans: all[mark:], self: selfTimes(all)[mark:],
		e0: e0, e1: e1, e2: e2, m0: m0, m1: m1,
	}), nil
}

// measure runs the workload's loop for dur.
func measure(ctx context.Context, w workload, st *stand, o oracle, rng *rand.Rand, dur time.Duration, tr *tracer) *phase {
	if w.open {
		return openLoop(st, o, newSchedule(rng, w.rate, dur), tr)
	}
	return closedLoop(ctx, st, o, rng, dur, tr)
}

// checkOpenLoop marks an open-loop run invalid when its generator fell
// behind the schedule.
func checkOpenLoop(w workload, p *phase, res *result) {
	if !w.open {
		return
	}
	if lag := quantile(p.lag, 0.9); lag > float64(maxLagP90)/1e6 {
		res.invalid = append(res.invalid, fmt.Sprintf("generator lag p90 %.2fms exceeds %v", lag, maxLagP90))
	}
}

// geomeanOfMedians is the geometric mean, over the query ids, of each
// id's median latency: every query weighs the same, however fast.
func geomeanOfMedians(lat []float64, qid []int) float64 {
	by := make([][]float64, len(ssb.QueryIDs))
	for i, l := range lat {
		by[qid[i]] = append(by[qid[i]], l)
	}
	var meds []float64
	for _, xs := range by {
		if len(xs) > 0 {
			meds = append(meds, quantile(xs, 0.5))
		}
	}
	return geomean(meds)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// freeMemory collects garbage and returns it to the OS, so set-ups and
// measured phases start from the same heap.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// report prints the human report, the parameters and the result line
// (last), saves them, and returns the exit code.
func report(params map[string]any, res *result, path string) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range res.metrics {
		v := m.value
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = math.MaxFloat64 // failed requests: never within any bound
		}
		metrics[m.name] = value{v, m.unit}
		fmt.Printf("%-28s %14.4f %-5s %s\n", m.name, m.value, m.unit, m.note)
	}
	failedRatio := float64(res.failed) / float64(max(res.attempted, 1))
	fmt.Printf("%-28s %14.4f %-5s %d of %d attempted\n", "failed_ratio", failedRatio, "ratio", res.failed, res.attempted)
	for _, why := range res.invalid {
		fmt.Println("invalid run:", why)
	}
	correct := res.failed == 0 && len(res.invalid) == 0
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": res.attempted, "failed": res.failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	pj, _ := json.Marshal(params) // a map of strings and numbers always marshals
	fmt.Printf("params %s\n", pj)
	full, _ := json.MarshalIndent(map[string]any{"params": params, "failed_ratio": failedRatio, "invalid": res.invalid, "result": json.RawMessage(line)}, "", "  ")
	if err := os.WriteFile(path, full, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: saving the result:", err)
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}
