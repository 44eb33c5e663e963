package core

import (
	"qppt/internal/arena"
	"qppt/internal/spill"
)

// An Env is the long-lived execution environment a plan runs in: the
// shared worker pool, the cross-plan chunk recycler, and the spill manager
// whose byte budget spans every concurrent plan. Plan.Run creates (and
// tears down) an ephemeral Env per call — the historical one-shot mode —
// while a server embeds one Env in a qppt.Engine and passes it to
// Plan.RunCtx so the steady state the prefix-tree processing model builds
// up (warm chunk pools, a stable worker pool, one spill budget) carries
// across queries instead of being re-created and re-collected per plan.
//
// An Env is safe for concurrent use: any number of plans may run against
// it at once. The scheduler bounds the *helper* goroutines across all of
// them; each plan's calling goroutine additionally works inline, so K
// concurrent plans on a pool of W workers run at most K+W−1 execution
// goroutines. Close releases the spill state; plans must not be running.
type Env struct {
	sched *Scheduler
	rec   *arena.Recycler
	spill *spill.Manager
}

// EnvConfig parameterizes NewEnv. The zero value is a serial environment
// with no recycler and no spill budget — equivalent to one-shot execution
// with zero Options.
type EnvConfig struct {
	// Workers sizes the shared worker pool (see Options.Workers; the same
	// WorkersAuto sentinel applies). Plans run through this Env ignore
	// Options.Workers — the pool is an environment property.
	Workers int
	// Recycle creates the session-scoped chunk recycler; RecycleCap
	// bounds the bytes it may retain (0 = unbounded; see
	// arena.Recycler.SetCap). Dropped intermediates' chunks park here and
	// later plans' index allocations draw from the pool first.
	Recycle    bool
	RecycleCap int64
	// MemBudget caps the resident bytes of intermediate indexes across
	// every plan sharing this Env (0 = no spilling); SpillDir places the
	// spill files as in Options.
	MemBudget int64
	SpillDir  string
}

// NewEnv builds a long-lived execution environment.
func NewEnv(cfg EnvConfig) (*Env, error) {
	env := &Env{sched: NewScheduler(Options{Workers: cfg.Workers}.poolWorkers())}
	if cfg.Recycle {
		env.rec = arena.NewRecycler()
		env.rec.SetCap(cfg.RecycleCap)
	}
	if cfg.MemBudget > 0 {
		mgr, err := newSpillManager(cfg.MemBudget, cfg.SpillDir)
		if err != nil {
			return nil, err
		}
		env.spill = mgr
	}
	return env, nil
}

// newSpillManager is the single place a spill manager is assembled from
// budget knobs — NewEnv builds the environment-scoped manager through it
// and RunCtx the plan-private one (a budget passed in Options against a
// spill-less shared Env), so the two paths cannot drift apart.
func newSpillManager(budget int64, dir string) (*spill.Manager, error) {
	return spill.NewConfig(spill.Config{Budget: budget, Dir: dir})
}

// Workers reports the shared pool size.
func (e *Env) Workers() int { return e.sched.Workers() }

// RecyclerStats snapshots the session recycler's counters (zero without a
// recycler).
func (e *Env) RecyclerStats() arena.RecyclerStats { return e.rec.Stats() }

// SpillStats snapshots the shared spill manager's counters (zero without
// a memory budget).
func (e *Env) SpillStats() spill.Stats {
	if e.spill == nil {
		return spill.Stats{}
	}
	return e.spill.Stats()
}

// Close tears the environment down, deleting all spill state. Every plan
// using the Env must have finished: results were detached from the spill
// manager when their plans returned, so they stay valid after Close.
func (e *Env) Close() error {
	if e == nil {
		return nil
	}
	if e.spill != nil {
		return e.spill.Close()
	}
	return nil
}

// ephemeralEnv assembles the per-call environment Plan.Run historically
// created: pool, recycler and spill manager live for one execution. The
// plan-scoped recycler is uncapped — it dies with the plan.
func ephemeralEnv(opts Options) (*Env, error) {
	return NewEnv(EnvConfig{
		Workers:   opts.Workers,
		Recycle:   opts.Recycle,
		MemBudget: opts.MemBudget,
		SpillDir:  opts.SpillDir,
	})
}
