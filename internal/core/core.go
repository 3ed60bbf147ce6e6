// Package core is the high-level experiment runner: it ties workload
// generation, the simulated machine, and the power model into the
// paired-run methodology of the paper — the same trace executed once
// without and once with clock gating, compared by the §IV metrics.
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/config"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stamp"
	"repro/internal/tcc"
	"repro/internal/trace"
	"repro/internal/workload"
)

// RunSpec names one experiment: a workload on a machine size.
type RunSpec struct {
	// App is the STAMP preset to run. Ignored if Trace is set.
	App stamp.App
	// Trace optionally supplies a pre-built workload (overrides App).
	Trace *workload.Trace
	// Processors is the core count (the paper uses 4, 8, 16).
	Processors int
	// W0 is the gating window constant (0 means the default, 8).
	W0 sim.Time
	// Seed drives workload generation.
	Seed uint64
	// Model is the power model; the zero value selects the paper's
	// Table I model.
	Model power.Model
	// Configure, if non-nil, edits the machine configuration before each
	// run (applied to both the gated and ungated run).
	Configure func(*config.Config)
}

// Memo supplies one run of a pair from a lookup: it is called with the
// run's exact machine config and a function that simulates that run on
// the pair's trace, and returns the run's result — either simulated by
// run or shared from an earlier run of the same trace and config. The
// result is shared read-only (see tcc.Result).
type Memo func(ctx context.Context, cfg config.Config, run func() (*tcc.Result, error)) (*tcc.Result, error)

func (rs RunSpec) model() power.Model {
	if rs.Model == (power.Model{}) {
		return power.Default()
	}
	return rs.Model
}

func (rs RunSpec) trace() (*workload.Trace, error) {
	if rs.Trace != nil {
		return rs.Trace, nil
	}
	return stamp.Generate(rs.App, rs.Processors, rs.Seed)
}

func (rs RunSpec) config(gated bool) config.Config {
	cfg := config.Default(rs.Processors)
	if gated {
		cfg = cfg.WithGating(rs.W0)
	}
	cfg.Seed = rs.Seed
	if rs.Configure != nil {
		rs.Configure(&cfg)
	}
	return cfg
}

// Outcome is the result of one paired (ungated vs gated) experiment.
type Outcome struct {
	Spec       RunSpec
	Ungated    *tcc.Result
	Gated      *tcc.Result
	Comparison power.Comparison
}

// cancelHook converts a context into the periodic cancellation hook the
// simulator polls; background-like contexts install no hook at all, so
// the uncancellable path stays overhead-free.
func cancelHook(ctx context.Context) func() error {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return func() error { return context.Cause(ctx) }
}

// RunOne executes a single configuration (gated or not) of the spec. A
// single run is the one whose result carries the state timeline: its
// Ledger answers Segments and windowed queries (power.Intervals,
// report.Timeline). Paired runs keep per-state residency totals only.
func RunOne(rs RunSpec, gated bool) (*tcc.Result, error) {
	return RunOneRecorded(rs, gated, nil)
}

// RunOneCtx is RunOne with context cancellation: the context is checked
// before the run starts and polled periodically while the simulation is
// in flight, so a cancellation surfaces promptly as ctx.Err().
func RunOneCtx(ctx context.Context, rs RunSpec, gated bool) (*tcc.Result, error) {
	return runOne(ctx, rs, gated, nil)
}

// RunOneRecorded is RunOne with a protocol event recorder attached to the
// machine (nil records nothing).
func RunOneRecorded(rs RunSpec, gated bool, rec *trace.Recorder) (*tcc.Result, error) {
	return runOne(context.Background(), rs, gated, rec)
}

func runOne(ctx context.Context, rs RunSpec, gated bool, rec *trace.Recorder) (*tcc.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr, err := rs.trace()
	if err != nil {
		return nil, err
	}
	sys, err := tcc.NewSystem(rs.config(gated), tr)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		sys.SetRecorder(rec)
	}
	sys.RecordTimeline()
	sys.SetCancel(cancelHook(ctx))
	return sys.Run()
}

// SystemCache holds one constructed tcc.System for reuse across a stream
// of runs with the same machine shape. A cache belongs to exactly one
// worker goroutine — it is not safe for concurrent use — and caches the
// last shape it saw: a run on a matching shape resets the held System in
// place (allocation-free, bit-identical to fresh construction by the
// System.Reset contract); a shape change rebuilds and the new System takes
// the slot. The zero value is ready to use.
type SystemCache struct {
	sys *tcc.System
	// Reuses counts runs served by an in-place Reset of the held System.
	Reuses uint64
	// Rebuilds counts runs that constructed a fresh System (first use and
	// every shape change).
	Rebuilds uint64
}

// RunPair executes the spec twice on the identical trace — ungated
// baseline and gated — and compares them with the paper's energy model.
// Both results' ledgers keep residency totals only, no state timeline;
// RunOne records the timeline of a single run.
func RunPair(rs RunSpec) (*Outcome, error) {
	return RunPairCtx(context.Background(), rs)
}

// RunPairCtx is RunPair with context cancellation threaded through both
// runs: the context is checked between phases and polled inside each
// simulation, so a canceled campaign stops mid-run instead of finishing
// the cell. A run that is not canceled is byte-identical to RunPair.
func RunPairCtx(ctx context.Context, rs RunSpec) (*Outcome, error) {
	return RunPairCached(ctx, rs, nil, nil)
}

// RunPairCached is RunPairCtx with an optional per-worker System cache:
// both runs of the pair (and every later pair of the same machine shape)
// execute on one reused System instead of constructing a fresh machine
// per run. A nil cache selects fresh construction — the exact RunPairCtx
// behavior — and results are byte-identical either way. A non-nil memo
// supplies each run instead (simulating on sc only when it must); the
// comparison is still computed per call, under the spec's own power
// model, and the memo is not kept in the Outcome.
func RunPairCached(ctx context.Context, rs RunSpec, sc *SystemCache, memo Memo) (*Outcome, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr, err := rs.trace()
	if err != nil {
		return nil, err
	}
	rs.Trace = tr // pin the trace so both runs share it exactly

	ungated, err := runWith(ctx, rs, false, tr, sc, memo)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("core: ungated run: %w", err)
	}
	gated, err := runWith(ctx, rs, true, tr, sc, memo)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("core: gated run: %w", err)
	}
	return &Outcome{
		Spec:       rs,
		Ungated:    ungated,
		Gated:      gated,
		Comparison: power.Compare(rs.model(), ungated.Ledger, gated.Ledger),
	}, nil
}

// runWith produces one run of the pair: through memo when there is one,
// by simulating directly otherwise.
func runWith(ctx context.Context, rs RunSpec, gated bool, tr *workload.Trace, sc *SystemCache, memo Memo) (*tcc.Result, error) {
	cfg := rs.config(gated)
	if memo == nil {
		return simulate(ctx, cfg, tr, sc)
	}
	return memo(ctx, cfg, func() (*tcc.Result, error) { return simulate(ctx, cfg, tr, sc) })
}

// simulate executes one run of cfg on tr, on the cached System when its
// shape matches and on a freshly built one otherwise.
func simulate(ctx context.Context, cfg config.Config, tr *workload.Trace, sc *SystemCache) (*tcc.Result, error) {
	if sc != nil && sc.sys != nil {
		switch err := sc.sys.Reset(cfg, tr); {
		case err == nil:
			sc.Reuses++
			sc.sys.SetCancel(cancelHook(ctx))
			return sc.sys.Run()
		case !errors.Is(err, tcc.ErrShapeChange):
			// Invalid config or trace: fresh construction would fail the
			// same validation, so surface the error directly.
			return nil, err
		}
	}
	sys, err := tcc.NewSystem(cfg, tr)
	if err != nil {
		return nil, err
	}
	if sc != nil {
		sc.sys = sys
		sc.Rebuilds++
	}
	sys.SetCancel(cancelHook(ctx))
	return sys.Run()
}
