package experiments

import (
	"errors"
	"fmt"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcc"
)

// This file defines the serializable form of a completed cell — the one
// wire format shared by the JSONL checkpoint sink (checkpoint.go) and the
// distributed campaign fabric (internal/dist). A record holds the fields
// every sweep on the session reads: the comparison, both runs' cycle,
// counter and interconnect-stat sets, and the per-processor residency
// totals the energy model reduces a ledger to (so re-pricing sweeps like
// the SRPG ablation work on restored results). Integers and
// shortest-form floats round-trip through JSON exactly, and energy is a
// function of the integer residency totals alone, so a restored
// outcome's campaign output — reports, CSV, per-bank stat columns — is
// byte-identical to the freshly simulated one. Per-processor, cache and
// directory breakdowns are not persisted: nothing on the campaign
// surface reads them from an outcome.
//
// Records arrive from files and from the network, so they are untrusted:
// every reader checks them with CellRecord.Validate and fails closed with
// ErrBadRecord.

// ErrBadRecord marks a cell record whose runs cannot have come from
// simulating its cell: the residency table has the wrong number of rows,
// a negative entry, or a row not summing to the run's cycles.
var ErrBadRecord = errors.New("experiments: bad cell record")

// RunRecord is the serializable slice of one tcc.Result the campaign
// outputs depend on. Residency carries the ledger's whole-run per-state
// totals: the energy model reduces a ledger to exactly these integers,
// so a ledger restored from them re-prices (e.g. under the SRPG
// ablation's models) bit-identically to the original. No state timeline
// is recorded — a campaign run never keeps one — so the restored
// ledger answers whole-run queries only. Bus and BankBus carry the
// interconnect counters the CSV's bus/bank columns render.
type RunRecord struct {
	Cycles    sim.Time                    `json:"cycles"`
	Counters  stats.Counters              `json:"counters"`
	Residency [][stats.NumStates]sim.Time `json:"residency"`
	TraceName string                      `json:"trace_name,omitempty"`
	Gated     bool                        `json:"gated"`
	Bus       bus.Stats                   `json:"bus"`
	BankBus   []bus.Stats                 `json:"bank_bus,omitempty"`
}

// NewRunRecord captures the serializable slice of one run result.
func NewRunRecord(r *tcc.Result) RunRecord {
	return RunRecord{
		Cycles:    r.Cycles,
		Counters:  r.Counters,
		Residency: r.Ledger.ResidencyTotals(),
		TraceName: r.TraceName,
		Gated:     r.Gated,
		Bus:       r.BusStats,
		BankBus:   r.BankStats,
	}
}

// Result restores the run result the record was captured from, up to the
// fields the campaign surface reads.
func (rr RunRecord) Result() *tcc.Result {
	return &tcc.Result{
		Cycles:    rr.Cycles,
		Counters:  rr.Counters,
		Ledger:    stats.RestoreLedger(rr.Residency, rr.Cycles),
		TraceName: rr.TraceName,
		Gated:     rr.Gated,
		BusStats:  rr.Bus,
		BankStats: rr.BankBus,
	}
}

// validate checks the record against the ledger invariant of a run on
// procs processors: one residency row per processor, no negative entry,
// and every row summing to Cycles (each processor is in exactly one state
// at every cycle of the run).
func (rr RunRecord) validate(procs int) error {
	if len(rr.Residency) != procs {
		return fmt.Errorf("%d residency rows for %d processors", len(rr.Residency), procs)
	}
	for p, row := range rr.Residency {
		var sum sim.Time
		for s, t := range row {
			if t < 0 {
				return fmt.Errorf("processor %d %s residency %d is negative", p, stats.State(s), t)
			}
			if t > rr.Cycles-sum {
				return fmt.Errorf("processor %d residency exceeds the run's %d cycles", p, rr.Cycles)
			}
			sum += t
		}
		if sum != rr.Cycles {
			return fmt.Errorf("processor %d residency sums to %d, not the run's %d cycles", p, sum, rr.Cycles)
		}
	}
	return nil
}

// CellRecord is the serializable form of one completed cell: the cell
// itself plus both runs and their §IV comparison. It is the payload of
// one checkpoint JSONL line and of one distributed worker return.
type CellRecord struct {
	Cell       Cell             `json:"cell"`
	Ungated    RunRecord        `json:"ungated"`
	Gated      RunRecord        `json:"gated"`
	Comparison power.Comparison `json:"comparison"`
}

// NewCellRecord captures one completed cell for the wire or the
// checkpoint file.
func NewCellRecord(c Cell, out *core.Outcome) CellRecord {
	return CellRecord{
		Cell:       c,
		Ungated:    NewRunRecord(out.Ungated),
		Gated:      NewRunRecord(out.Gated),
		Comparison: out.Comparison,
	}
}

// Validate checks both runs against their cell's ledger invariant (see
// RunRecord); a failure wraps ErrBadRecord.
func (r CellRecord) Validate() error {
	if r.Cell.Processors < 1 {
		return fmt.Errorf("%w: cell %s has %d processors", ErrBadRecord, r.Cell.Key(), r.Cell.Processors)
	}
	if err := r.Ungated.validate(r.Cell.Processors); err != nil {
		return fmt.Errorf("%w: cell %s, ungated run: %v", ErrBadRecord, r.Cell.Key(), err)
	}
	if err := r.Gated.validate(r.Cell.Processors); err != nil {
		return fmt.Errorf("%w: cell %s, gated run: %v", ErrBadRecord, r.Cell.Key(), err)
	}
	return nil
}

// Outcome restores the paired-run outcome the record was captured from.
func (r CellRecord) Outcome() *core.Outcome {
	return &core.Outcome{
		Spec: core.RunSpec{
			App:        r.Cell.App,
			Processors: r.Cell.Processors,
			W0:         r.Cell.W0,
			Seed:       r.Cell.Seed,
		},
		Ungated:    r.Ungated.Result(),
		Gated:      r.Gated.Result(),
		Comparison: r.Comparison,
	}
}

// Key identifies the cell for result deduplication: exactly the fields
// that change what the cell computes (see cellKey). Both the checkpoint
// sink and the distributed coordinator dedup returned results by this
// key — two sweeps (or two workers) that computed the same paired run
// share one record.
func (c Cell) Key() string { return cellKey(c) }
