// Package stats records per-processor state residency over simulated time
// and aggregates protocol event counters. The residency ledger is the raw
// material of the paper's energy model (§IV): every equation there is a
// function of how long each processor spent running, stalled on a miss,
// committing, or clock-gated.
package stats

import (
	"fmt"
	"slices"

	"repro/internal/sim"
)

// State is a processor power state. The set mirrors the paper's power
// model (Table I): Run covers normal execution and all spinning (the paper
// assumes spin-locks burn full run power), Miss covers L1 miss service,
// Commit covers write-set commit, and Gated covers the clock-gated state.
type State uint8

const (
	// StateRun is normal execution, commit-spin, and barrier-spin.
	StateRun State = iota
	// StateMiss is stalled on an L1 miss.
	StateMiss
	// StateCommit is actively committing the write-set.
	StateCommit
	// StateGated is clock-gated after an abort.
	StateGated
	// NumStates is the number of power states.
	NumStates = 4
)

func (s State) String() string {
	switch s {
	case StateRun:
		return "run"
	case StateMiss:
		return "miss"
	case StateCommit:
		return "commit"
	case StateGated:
		return "gated"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Segment is one residency interval of one processor.
type Segment struct {
	State    State
	From, To sim.Time
}

// Ledger records every processor's per-state residency over a run. Every
// ledger keeps running per-processor totals — all the paper's whole-run
// energy model (§IV, eqs. 6–7) reads. A timeline ledger (NewLedger) also
// keeps each processor's segment timeline, which windowed queries, the
// interval decomposition (eqs. 1–5) and the ASCII timeline need; a
// totals ledger (NewTotalsLedger, RestoreLedger) answers only whole-run
// queries, and Segments or a windowed Residency on it panic.
type Ledger struct {
	procs    int
	current  []State
	since    []sim.Time
	totals   [][NumStates]sim.Time
	segments [][]Segment // nil on a totals ledger
	closed   bool
	endTime  sim.Time
}

// NewLedger creates a timeline ledger for procs processors, all beginning
// in StateRun at time 0.
func NewLedger(procs int) *Ledger {
	l := NewTotalsLedger(procs)
	l.segments = make([][]Segment, procs)
	return l
}

// NewTotalsLedger creates a ledger for procs processors, all beginning in
// StateRun at time 0, that keeps per-state residency totals only: its
// memory is a few words per processor however long the run.
func NewTotalsLedger(procs int) *Ledger {
	return &Ledger{
		procs:   procs,
		current: make([]State, procs),
		since:   make([]sim.Time, procs),
		totals:  make([][NumStates]sim.Time, procs),
	}
}

// Procs returns the processor count.
func (l *Ledger) Procs() int { return l.procs }

// HasTimeline reports whether the ledger keeps the segment timeline.
func (l *Ledger) HasTimeline() bool { return l.segments != nil }

// Transition moves processor p into state s at time now. Zero-length
// segments are dropped. Transitioning a closed ledger panics.
func (l *Ledger) Transition(p int, s State, now sim.Time) {
	if l.closed {
		panic("stats: transition on closed ledger")
	}
	if now < l.since[p] {
		panic(fmt.Sprintf("stats: transition backwards in time for proc %d: %d < %d", p, now, l.since[p]))
	}
	if s == l.current[p] {
		return
	}
	l.flush(p, now)
	l.current[p] = s
	l.since[p] = now
}

// flush books processor p's open segment, [since, now), to its current
// state.
func (l *Ledger) flush(p int, now sim.Time) {
	if now <= l.since[p] {
		return
	}
	l.totals[p][l.current[p]] += now - l.since[p]
	if l.segments != nil {
		l.segments[p] = append(l.segments[p], Segment{State: l.current[p], From: l.since[p], To: now})
	}
}

// CurrentState returns processor p's current state.
func (l *Ledger) CurrentState(p int) State { return l.current[p] }

// Close finalizes the ledger at time end, flushing the open segment of
// every processor. After Close the ledger is immutable.
func (l *Ledger) Close(end sim.Time) {
	if l.closed {
		return
	}
	for p := 0; p < l.procs; p++ {
		l.flush(p, end)
	}
	l.closed = true
	l.endTime = end
}

// Closed reports whether Close has been called.
func (l *Ledger) Closed() bool { return l.closed }

// End returns the close time.
func (l *Ledger) End() sim.Time { return l.endTime }

// Segments returns processor p's timeline. Only valid after Close, and
// only on a timeline ledger. The returned slice must not be modified.
func (l *Ledger) Segments(p int) []Segment {
	if !l.closed {
		panic("stats: Segments before Close")
	}
	if l.segments == nil {
		panic("stats: Segments on a ledger without a timeline (built by NewTotalsLedger or RestoreLedger)")
	}
	return l.segments[p]
}

// Residency returns, for each processor, the cycles spent in each state
// within the window [from, to). Only valid after Close. A window covering
// the whole run (from <= 0 and to >= End()) is answered from the totals
// on any ledger; a narrower window needs a timeline ledger.
func (l *Ledger) Residency(from, to sim.Time) [][NumStates]sim.Time {
	return slices.Clone(l.window(from, to))
}

// window is Residency without the copy: a whole-run window returns the
// ledger's own totals, which the caller must not modify.
func (l *Ledger) window(from, to sim.Time) [][NumStates]sim.Time {
	if !l.closed {
		panic("stats: Residency before Close")
	}
	if from <= 0 && to >= l.endTime {
		return l.totals
	}
	if l.segments == nil {
		panic(fmt.Sprintf("stats: windowed Residency [%d, %d) on a ledger without a timeline (only [0, %d) is answered)", from, to, l.endTime))
	}
	out := make([][NumStates]sim.Time, l.procs)
	for p := 0; p < l.procs; p++ {
		for _, seg := range l.segments[p] {
			lo, hi := seg.From, seg.To
			if lo < from {
				lo = from
			}
			if hi > to {
				hi = to
			}
			if hi > lo {
				out[p][seg.State] += hi - lo
			}
		}
	}
	return out
}

// TotalResidency sums Residency over processors.
func (l *Ledger) TotalResidency(from, to sim.Time) [NumStates]sim.Time {
	var tot [NumStates]sim.Time
	for _, r := range l.window(from, to) {
		for s := 0; s < NumStates; s++ {
			tot[s] += r[s]
		}
	}
	return tot
}

// ResidencyTotals returns each processor's per-state residency over the
// full closed timeline [0, End()) — the aggregate every whole-run energy
// computation reduces the ledger to. Only valid after Close.
func (l *Ledger) ResidencyTotals() [][NumStates]sim.Time {
	return l.Residency(0, l.endTime)
}

// RestoreLedger rebuilds a closed totals ledger from per-processor
// residency totals and the close time, for replaying persisted results.
// Whole-run aggregates (Residency and TotalResidency over [0, End()), and
// with them every energy figure) are reproduced exactly; the timeline is
// not persisted, so Segments and windowed queries on a restored ledger
// panic.
func RestoreLedger(perProc [][NumStates]sim.Time, end sim.Time) *Ledger {
	l := NewTotalsLedger(len(perProc))
	copy(l.totals, perProc)
	l.closed = true
	l.endTime = end
	return l
}

// Counters aggregates protocol events for one run.
type Counters struct {
	Commits          uint64 // transactions committed
	Aborts           uint64 // directory-initiated aborts (invalidation hits read-set)
	ValidationAborts uint64 // aborts taken at the commit validation phase
	SelfAborts       uint64 // self-aborts after wake-up from gating
	Gatings          uint64 // StopClock deliveries that actually gated a running processor
	Renewals         uint64 // gating-period renewals
	Ungates          uint64 // On commands delivered
	TxInfoRequests   uint64 // TxInfoReq messages
	TokenRequests    uint64 // TID acquisitions
	Invalidations    uint64 // invalidation messages sent by directories
	Overflows        uint64 // speculative-overflow serializations
}

// AbortRate returns aborts per committed transaction.
func (c *Counters) AbortRate() float64 {
	if c.Commits == 0 {
		return 0
	}
	return float64(c.Aborts) / float64(c.Commits)
}
