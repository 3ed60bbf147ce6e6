package power

import (
	"sort"

	"repro/internal/sim"
	"repro/internal/stats"
)

// IntervalModel is the paper's §IV formulation of run energy: the
// decomposition over intervals during which exactly i processors were in a
// low-power condition ("gated or waiting for a cache miss or performing
// commit"). Equation (1) computes gated-run energy Eg from the interval
// totals Xi and the weighted proportions αi (miss) and βi (commit);
// equation (5) is the ungated special case (Yi, δi, no gated term).
//
// The simulator tracks energy directly by integrating per-processor
// residencies; this type exists to reproduce the paper's arithmetic and to
// cross-check the two formulations against each other (they must agree
// exactly, and a property test asserts that they do).
type IntervalModel struct {
	// P is the processor count.
	P int
	// N is the parallel execution time (N2 for gated runs, N1 ungated).
	N sim.Time
	// X[i] is the total time exactly i processors were low-power
	// (index 0..P; X[0] is tracked but unused by the equation).
	X []sim.Time
	// Alpha[i] is the weighted proportion of miss-stalled processors
	// within X[i] (the paper's αi / δi).
	Alpha []float64
	// Beta[i] is the weighted proportion of committing processors
	// within X[i] (the paper's βi; zero for ungated runs only if no
	// commits overlapped, not by construction).
	Beta []float64
}

// Intervals decomposes a closed ledger into the paper's Xi/αi/βi interval
// statistics over [0, l.End()). It reads the state timeline, so the
// ledger must keep one (a single run's, see core.RunOne): like
// Ledger.Segments it panics on a totals-only ledger, such as a paired or
// restored run's.
func Intervals(l *stats.Ledger) IntervalModel {
	p := l.Procs()
	end := l.End()
	im := IntervalModel{
		P:     p,
		N:     end,
		X:     make([]sim.Time, p+1),
		Alpha: make([]float64, p+1),
		Beta:  make([]float64, p+1),
	}
	// Gather every state-change instant of every processor.
	cuts := make([]sim.Time, 0, 64)
	cuts = append(cuts, 0, end)
	for proc := 0; proc < p; proc++ {
		for _, seg := range l.Segments(proc) {
			cuts = append(cuts, seg.From, seg.To)
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	cuts = dedupTimes(cuts)

	// Per-processor segment cursors: segments are already time-ordered.
	cursor := make([]int, p)
	missW := make([]float64, p+1)   // Σ n_miss · Δ, by i
	commitW := make([]float64, p+1) // Σ n_commit · Δ, by i

	for c := 0; c+1 < len(cuts); c++ {
		t0, t1 := cuts[c], cuts[c+1]
		if t1 <= t0 || t0 >= end {
			continue
		}
		if t1 > end {
			t1 = end
		}
		dt := t1 - t0
		var nMiss, nCommit, nGated int
		for proc := 0; proc < p; proc++ {
			segs := l.Segments(proc)
			for cursor[proc] < len(segs) && segs[cursor[proc]].To <= t0 {
				cursor[proc]++
			}
			if cursor[proc] >= len(segs) {
				continue // past this processor's timeline: counts as run
			}
			seg := segs[cursor[proc]]
			if seg.From > t0 {
				continue // gap (shouldn't happen in a closed ledger)
			}
			switch seg.State {
			case stats.StateMiss:
				nMiss++
			case stats.StateCommit:
				nCommit++
			case stats.StateGated:
				nGated++
			}
		}
		i := nMiss + nCommit + nGated
		im.X[i] += dt
		missW[i] += float64(nMiss) * float64(dt)
		commitW[i] += float64(nCommit) * float64(dt)
	}

	for i := 1; i <= p; i++ {
		if im.X[i] == 0 {
			continue
		}
		denom := float64(i) * float64(im.X[i])
		im.Alpha[i] = missW[i] / denom
		im.Beta[i] = commitW[i] / denom
	}
	return im
}

func dedupTimes(ts []sim.Time) []sim.Time {
	out := ts[:0]
	for i, t := range ts {
		if i == 0 || t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}

// GatedEnergy evaluates equation (1): total energy of a gated run.
func (im IntervalModel) GatedEnergy(m Model) float64 {
	runTerm := float64(im.N) * float64(im.P)
	var missE, commitE, gateE float64
	for i := 1; i <= im.P; i++ {
		xi := float64(im.X[i]) * float64(i)
		runTerm -= xi
		missE += xi * im.Alpha[i] * m.Miss
		commitE += xi * im.Beta[i] * m.Commit
		gateE += xi * (1 - im.Alpha[i] - im.Beta[i]) * m.Gated
	}
	return runTerm*m.Run + missE + commitE + gateE
}

// UngatedEnergy evaluates equation (5): total energy of an ungated run,
// where a low-power processor is either miss-stalled (δi) or committing
// (1-δi).
func (im IntervalModel) UngatedEnergy(m Model) float64 {
	runTerm := float64(im.N) * float64(im.P)
	var missE, commitE float64
	for i := 1; i <= im.P; i++ {
		yi := float64(im.X[i]) * float64(i)
		runTerm -= yi
		missE += yi * im.Alpha[i] * m.Miss
		commitE += yi * (1 - im.Alpha[i]) * m.Commit
	}
	return runTerm*m.Run + missE + commitE
}
