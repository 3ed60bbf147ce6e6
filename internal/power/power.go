// Package power implements the paper's Alpha 21264 @ 65 nm power model
// (§VII, Table I) and the analytical energy model of §IV (equations 1–7).
//
// The model is relative: Run-mode power is 1.0 and everything else is a
// fraction of it. The paper derives the fractions from the published Alpha
// 21264 power breakdown (caches 15 %, clock 32 %, I/O 5 %), a 20 % leakage
// share at 65 nm, and a 1.5× power multiplier for the TCC-augmented data
// cache:
//
//	Commit = leak + (1-leak)·(TCC D-cache + I/O + their clocks)
//	       = 0.2 + 0.8·(0.15 + 0.05 + 0.10)          = 0.44
//	Miss   = 0.2 + 0.8·0.5·(0.15 + 0.05 + 0.10)      = 0.32
//	Gated  = leak                                     = 0.20
package power

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Breakdown holds the component fractions of total processor power that
// the Table I derivation starts from.
type Breakdown struct {
	// Leakage is the leakage share of total power in active mode
	// (0.20 at 65 nm with high-Vt/stacking mitigations, per §VII).
	Leakage float64
	// DataCache is the share of a normal (non-TCC) data cache (0.10:
	// the paper attributes 15 % to caches, of which the D-cache is 10 %).
	DataCache float64
	// TCCCacheFactor multiplies DataCache to account for RW bits, the
	// store-address FIFO and the commit controller (1.5).
	TCCCacheFactor float64
	// IO is the I/O interface share (0.05).
	IO float64
	// CacheIOClock is the share of the clock tree feeding the data
	// cache and I/O interfaces (0.10).
	CacheIOClock float64
	// MissActivity is the cache dynamic activity during a miss relative
	// to a hit (0.5, from the cited measurement).
	MissActivity float64
}

// DefaultBreakdown returns the paper's component fractions.
func DefaultBreakdown() Breakdown {
	return Breakdown{
		Leakage:        0.20,
		DataCache:      0.10,
		TCCCacheFactor: 1.5,
		IO:             0.05,
		CacheIOClock:   0.10,
		MissActivity:   0.5,
	}
}

// Model holds the per-state power factors of Table I.
type Model struct {
	// Run is the full run-mode power (normal code, transactions and
	// spin-locks). Always 1.0 in the paper's normalization.
	Run float64
	// Miss is the power while serving an L1 miss.
	Miss float64
	// Commit is the power while committing the write-set.
	Commit float64
	// Gated is the power while clock-gated (leakage plus the
	// negligible PLL).
	Gated float64
}

// Derive computes the Table I factors from a component breakdown.
func Derive(b Breakdown) Model {
	dyn := 1 - b.Leakage
	tccCache := b.DataCache * b.TCCCacheFactor
	active := tccCache + b.IO + b.CacheIOClock
	return Model{
		Run:    1.0,
		Commit: b.Leakage + dyn*active,
		Miss:   b.Leakage + dyn*b.MissActivity*active,
		Gated:  b.Leakage,
	}
}

// Default returns the paper's Table I model.
func Default() Model { return Derive(DefaultBreakdown()) }

// Factor returns the power factor for a residency state.
func (m Model) Factor(s stats.State) float64 {
	switch s {
	case stats.StateRun:
		return m.Run
	case stats.StateMiss:
		return m.Miss
	case stats.StateCommit:
		return m.Commit
	case stats.StateGated:
		return m.Gated
	default:
		panic(fmt.Sprintf("power: unknown state %v", s))
	}
}

// WithSRPG returns a copy of the model with state-retention power gating
// applied to the gated state: the retained-leakage fraction keep (0..1)
// scales the gated factor. keep = 1 reproduces the paper's plain clock
// gating; the paper's §IV notes fine-grained power gating could cut
// leakage too.
func (m Model) WithSRPG(keep float64) Model {
	if keep < 0 || keep > 1 {
		panic(fmt.Sprintf("power: SRPG keep fraction %f out of [0,1]", keep))
	}
	m.Gated *= keep
	return m
}

// Energy integrates a closed residency ledger over [from, to) and returns
// total energy in run-power-cycle units. Any ledger answers the whole run,
// [0, End()); a narrower window needs one with a state timeline (see
// stats.Ledger), as do the other windowed methods below.
func (m Model) Energy(l *stats.Ledger, from, to sim.Time) float64 {
	tot := l.TotalResidency(from, to)
	e := 0.0
	for s := 0; s < stats.NumStates; s++ {
		e += float64(tot[s]) * m.Factor(stats.State(s))
	}
	return e
}

// EnergyByState returns the per-state energy contributions over [from, to)
// in run-power-cycle units — the breakdown the CSV's per-state energy
// columns carry. Each entry is tot[s]·Factor(s), so the slice sums to
// Energy over the same window.
func (m Model) EnergyByState(l *stats.Ledger, from, to sim.Time) [stats.NumStates]float64 {
	tot := l.TotalResidency(from, to)
	var out [stats.NumStates]float64
	for s := 0; s < stats.NumStates; s++ {
		out[s] = float64(tot[s]) * m.Factor(stats.State(s))
	}
	return out
}

// PerProcEnergy returns each processor's energy over [from, to).
func (m Model) PerProcEnergy(l *stats.Ledger, from, to sim.Time) []float64 {
	res := l.Residency(from, to)
	out := make([]float64, len(res))
	for p, r := range res {
		for s := 0; s < stats.NumStates; s++ {
			out[p] += float64(r[s]) * m.Factor(stats.State(s))
		}
	}
	return out
}

// AveragePower returns energy divided by wall-clock cycles of the window.
func (m Model) AveragePower(l *stats.Ledger, from, to sim.Time) float64 {
	if to <= from {
		return 0
	}
	return m.Energy(l, from, to) / float64(to-from)
}

// Comparison holds the paper's summary metrics between an ungated and a
// gated run of the same trace (§IV, equations 6 and 7).
type Comparison struct {
	N1, N2        sim.Time // parallel execution time: ungated, gated
	Eug, Eg       float64  // total energy: ungated, gated
	Pug, Pg       float64  // average power: ungated, gated
	EnergyRatio   float64  // Eug/Eg — the paper's "EnergyReduction" factor (>1 is a win)
	AvgPowerRatio float64  // (Eug/Eg)·(N2/N1) — average-power reduction factor
	SpeedUp       float64  // N1/N2 (>1 is a win)
	EnergySavings float64  // 1 - Eg/Eug, as a fraction
	PowerSavings  float64  // 1 - Pg/Pug, as a fraction
	TimeReduction float64  // 1 - N2/N1, as a fraction
}

// Compare computes the §IV summary metrics from two closed ledgers covering
// the parallel sections [0, N1) and [0, N2).
func Compare(m Model, ungated, gated *stats.Ledger) Comparison {
	n1, n2 := ungated.End(), gated.End()
	eug := m.Energy(ungated, 0, n1)
	eg := m.Energy(gated, 0, n2)
	c := Comparison{
		N1: n1, N2: n2,
		Eug: eug, Eg: eg,
		Pug: safeDiv(eug, float64(n1)),
		Pg:  safeDiv(eg, float64(n2)),
	}
	c.EnergyRatio = safeDiv(eug, eg)
	c.SpeedUp = safeDiv(float64(n1), float64(n2))
	c.AvgPowerRatio = c.EnergyRatio * safeDiv(float64(n2), float64(n1))
	c.EnergySavings = 1 - safeDiv(eg, eug)
	c.PowerSavings = 1 - safeDiv(c.Pg, c.Pug)
	c.TimeReduction = 1 - safeDiv(float64(n2), float64(n1))
	return c
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}
