// Package cliflags is the single home of the execution knobs both CLIs
// (cmd/qpptbench, cmd/qpptsql) expose: worker pool size, morsel fan-out,
// joinbuffer size, memory budget, chunk recycling and fusion. Register
// once, then resolve the parsed values into per-query core.Options or a
// long-lived qppt.Config — future knobs are added here and appear in both
// commands with identical names, defaults and help texts.
package cliflags

import (
	"flag"

	"qppt"
	"qppt/internal/core"
	"qppt/internal/spill"
)

// Exec holds the shared execution flags after parsing.
type Exec struct {
	Workers    int
	Morsels    int
	Buffer     int
	MemBudget  string
	RecycleCap string
	Recycle    bool
	NoRecycle  bool
	NoFuse     bool
	ProbeBatch int
	MaxPlans   int
	QueueDepth int
	StmtCache  int
}

// Register declares the shared flags on fs (use flag.CommandLine for the
// process flag set). The returned struct is filled by fs.Parse.
func Register(fs *flag.FlagSet) *Exec {
	e := &Exec{}
	fs.IntVar(&e.Workers, "workers", 1, "shared worker pool size for morsel-driven parallel execution (1 = serial, -1 = GOMAXPROCS)")
	fs.IntVar(&e.Morsels, "morsels", 0, "morsels per worker (0 = default fan-out)")
	fs.IntVar(&e.Buffer, "buffer", 0, "joinbuffer/selectionbuffer size (1 disables batching, 0 = default)")
	fs.StringVar(&e.MemBudget, "membudget", "", "intermediate-index memory budget (e.g. 256MiB); empty = unlimited, no spilling")
	fs.BoolVar(&e.Recycle, "recycle", false, "recycle dropped intermediates' chunks within each one-shot plan (engine mode recycles across plans by default; see -norecycle)")
	fs.BoolVar(&e.NoRecycle, "norecycle", false, "disable the engine's cross-plan chunk recycler (on by default in engine mode)")
	fs.StringVar(&e.RecycleCap, "recyclecap", "", "byte cap on the engine chunk pool (e.g. 256MiB); empty = engine default")
	fs.BoolVar(&e.NoFuse, "nofuse", false, "disable pipeline fusion: materialize every single-consumer intermediate index (fusion is on by default)")
	fs.IntVar(&e.ProbeBatch, "probebatch", 0, "probe-forward batch size inside fused chains (1 = scalar forwarding, 0 = default; ignored under -nofuse)")
	fs.IntVar(&e.MaxPlans, "max-plans", 0, "admission cap on concurrently executing plans (0 = unlimited, no admission control)")
	fs.IntVar(&e.QueueDepth, "queue-depth", 0, "per-session admission queue depth before queries are shed with ErrOverloaded (0 = default; needs -max-plans)")
	fs.IntVar(&e.StmtCache, "stmtcache", 0, "per-connection prepared-statement cache capacity (0 = default, negative disables)")
	return e
}

// Serve holds the serving-tier address flags (cmd/qpptsql).
type Serve struct {
	Listen string
	HTTP   string
}

// RegisterServe declares the serving-tier flags on fs: -listen runs the
// binary wire protocol, -serve the HTTP adapter layered over it. Both
// may be given together; either replaces the interactive shell.
func RegisterServe(fs *flag.FlagSet) *Serve {
	s := &Serve{}
	fs.StringVar(&s.Listen, "listen", "", "serve the QPPT wire protocol on this TCP address (e.g. :5477) instead of the interactive shell")
	fs.StringVar(&s.HTTP, "serve", "", "serve HTTP queries on this address (e.g. :8080) as a thin adapter over the wire server")
	return s
}

// Serving reports whether any serving-tier address was given.
func (s *Serve) Serving() bool { return s.Listen != "" || s.HTTP != "" }

// budget parses the -membudget value (0 when empty).
func (e *Exec) budget() (int64, error) {
	if e.MemBudget == "" {
		return 0, nil
	}
	return spill.ParseBytes(e.MemBudget)
}

// RecycleCapBytes parses the -recyclecap value (0 when empty).
func (e *Exec) RecycleCapBytes() (int64, error) {
	if e.RecycleCap == "" {
		return 0, nil
	}
	return spill.ParseBytes(e.RecycleCap)
}

// ExecOptions resolves the flags into one-shot execution options
// (core.Plan.Run / bench harness configuration).
func (e *Exec) ExecOptions() (core.Options, error) {
	budget, err := e.budget()
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{
		Workers:          e.Workers,
		MorselsPerWorker: e.Morsels,
		BufferSize:       e.Buffer,
		MemBudget:        budget,
		Recycle:          e.Recycle,
		NoFuse:           e.NoFuse,
		ProbeBatch:       e.ProbeBatch,
	}, nil
}

// EngineConfig resolves the flags into a long-lived engine configuration:
// the same knobs, but worker pool, chunk pool and spill budget become
// engine-scoped so they carry across queries. Matching qppt.Config's
// default, the cross-plan recycler stays ON unless -norecycle is given —
// -recycle only opts one-shot plans in and is implied here.
func (e *Exec) EngineConfig() (qppt.Config, error) {
	budget, err := e.budget()
	if err != nil {
		return qppt.Config{}, err
	}
	cfg := qppt.Config{
		Workers:          e.Workers,
		MorselsPerWorker: e.Morsels,
		BufferSize:       e.Buffer,
		MemBudget:        budget,
		DisableRecycle:   e.NoRecycle,
		DisableFusion:    e.NoFuse,
		ProbeBatch:       e.ProbeBatch,
		MaxPlans:         e.MaxPlans,
		QueueDepth:       e.QueueDepth,
		StmtCache:        e.StmtCache,
	}
	cap, err := e.RecycleCapBytes()
	if err != nil {
		return qppt.Config{}, err
	}
	cfg.RecycleCap = cap
	return cfg, nil
}
