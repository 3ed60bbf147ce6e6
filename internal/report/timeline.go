package report

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Timeline renders a closed residency ledger as an ASCII Gantt chart: one
// row per processor, one column per time bucket, the dominant state of
// each bucket drawn as a glyph. It makes gating behaviour visible at a
// glance — bursts of '.' (gated) appearing after conflicts, miss stalls as
// 'm', commits as 'C'. Only a ledger with a state timeline (a single
// run's, see core.RunOne) can be drawn.
type Timeline struct {
	Ledger *stats.Ledger
	// Width is the number of time buckets (default 100).
	Width int
	// From/To bound the rendered window; zero values mean the full run.
	From, To sim.Time
}

// stateGlyphs maps each power state to its chart glyph.
var stateGlyphs = [stats.NumStates]byte{
	stats.StateRun:    '#',
	stats.StateMiss:   'm',
	stats.StateCommit: 'C',
	stats.StateGated:  '.',
}

// Render draws the chart.
func (tl Timeline) Render() string {
	l := tl.Ledger
	if l == nil || !l.Closed() {
		return "(timeline: no closed ledger)\n"
	}
	if !l.HasTimeline() {
		return "(timeline: ledger keeps residency totals only, no state timeline)\n"
	}
	width := tl.Width
	if width <= 0 {
		width = 100
	}
	from, to := tl.From, tl.To
	if to == 0 || to > l.End() {
		to = l.End()
	}
	if from >= to {
		return "(timeline: empty window)\n"
	}
	span := to - from
	var b strings.Builder
	fmt.Fprintf(&b, "timeline [%d, %d) — '#'=run 'm'=miss 'C'=commit '.'=gated\n", from, to)
	for p := 0; p < l.Procs(); p++ {
		row := make([]byte, width)
		for i := 0; i < width; i++ {
			lo := from + sim.Time(int64(span)*int64(i)/int64(width))
			hi := from + sim.Time(int64(span)*int64(i+1)/int64(width))
			if hi <= lo {
				hi = lo + 1
			}
			row[i] = stateGlyphs[dominantState(l, p, lo, hi)]
		}
		fmt.Fprintf(&b, "p%-3d |%s|\n", p, row)
	}
	return b.String()
}

// dominantState returns the state processor p spent the most time in
// within [lo, hi).
func dominantState(l *stats.Ledger, p int, lo, hi sim.Time) stats.State {
	var acc [stats.NumStates]sim.Time
	for _, seg := range l.Segments(p) {
		a, z := seg.From, seg.To
		if a < lo {
			a = lo
		}
		if z > hi {
			z = hi
		}
		if z > a {
			acc[seg.State] += z - a
		}
	}
	best := stats.StateRun
	var bestT sim.Time = -1
	for s := 0; s < stats.NumStates; s++ {
		if acc[s] > bestT {
			bestT = acc[s]
			best = stats.State(s)
		}
	}
	return best
}
