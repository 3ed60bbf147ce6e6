package stats

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestLedgerBasicResidency(t *testing.T) {
	l := NewLedger(2)
	l.Transition(0, StateMiss, 10)
	l.Transition(0, StateRun, 30)
	l.Transition(1, StateGated, 50)
	l.Close(100)

	res := l.Residency(0, 100)
	// Proc 0: run [0,10), miss [10,30), run [30,100).
	if res[0][StateRun] != 80 || res[0][StateMiss] != 20 {
		t.Fatalf("proc 0 residency %+v", res[0])
	}
	// Proc 1: run [0,50), gated [50,100).
	if res[1][StateRun] != 50 || res[1][StateGated] != 50 {
		t.Fatalf("proc 1 residency %+v", res[1])
	}
}

func TestLedgerWindowedResidency(t *testing.T) {
	l := NewLedger(1)
	l.Transition(0, StateCommit, 10)
	l.Transition(0, StateRun, 20)
	l.Close(40)
	res := l.Residency(15, 25)
	if res[0][StateCommit] != 5 || res[0][StateRun] != 5 {
		t.Fatalf("windowed residency %+v", res[0])
	}
}

func TestLedgerSameStateTransitionIsNoop(t *testing.T) {
	l := NewLedger(1)
	l.Transition(0, StateRun, 5)
	l.Transition(0, StateRun, 9)
	l.Close(10)
	if n := len(l.Segments(0)); n != 1 {
		t.Fatalf("%d segments, want 1 merged run segment", n)
	}
}

func TestLedgerZeroLengthSegmentDropped(t *testing.T) {
	l := NewLedger(1)
	l.Transition(0, StateMiss, 5)
	l.Transition(0, StateRun, 5) // zero-length miss
	l.Close(10)
	for _, seg := range l.Segments(0) {
		if seg.From == seg.To {
			t.Fatalf("zero-length segment survived: %+v", seg)
		}
	}
	res := l.Residency(0, 10)
	if res[0][StateMiss] != 0 || res[0][StateRun] != 10 {
		t.Fatalf("residency %+v", res[0])
	}
}

func TestLedgerBackwardsTransitionPanics(t *testing.T) {
	l := NewLedger(1)
	l.Transition(0, StateMiss, 10)
	defer func() {
		if recover() == nil {
			t.Error("backwards transition did not panic")
		}
	}()
	l.Transition(0, StateRun, 5)
}

func TestLedgerTransitionAfterClosePanics(t *testing.T) {
	l := NewLedger(1)
	l.Close(10)
	defer func() {
		if recover() == nil {
			t.Error("transition after close did not panic")
		}
	}()
	l.Transition(0, StateMiss, 20)
}

func TestLedgerSegmentsBeforeClosePanics(t *testing.T) {
	l := NewLedger(1)
	defer func() {
		if recover() == nil {
			t.Error("Segments before Close did not panic")
		}
	}()
	l.Segments(0)
}

func TestLedgerDoubleCloseIdempotent(t *testing.T) {
	l := NewLedger(1)
	l.Close(10)
	l.Close(20) // must not extend or panic
	if l.End() != 10 {
		t.Fatalf("End %d, want 10", l.End())
	}
}

func TestCurrentState(t *testing.T) {
	l := NewLedger(1)
	if l.CurrentState(0) != StateRun {
		t.Fatal("initial state not run")
	}
	l.Transition(0, StateGated, 3)
	if l.CurrentState(0) != StateGated {
		t.Fatal("current state not tracked")
	}
}

func TestTotalResidencySums(t *testing.T) {
	l := NewLedger(3)
	l.Transition(1, StateMiss, 10)
	l.Transition(2, StateCommit, 20)
	l.Close(50)
	tot := l.TotalResidency(0, 50)
	if tot[StateRun]+tot[StateMiss]+tot[StateCommit]+tot[StateGated] != 150 {
		t.Fatalf("total residency %+v does not cover 3 procs x 50 cycles", tot)
	}
	if tot[StateMiss] != 40 || tot[StateCommit] != 30 {
		t.Fatalf("total residency %+v", tot)
	}
}

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		StateRun: "run", StateMiss: "miss", StateCommit: "commit", StateGated: "gated",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("State(%d).String() = %q, want %q", s, s.String(), w)
		}
	}
	if State(99).String() == "" {
		t.Error("unknown state empty string")
	}
}

func TestCountersAbortRate(t *testing.T) {
	c := Counters{Aborts: 30, Commits: 10}
	if c.AbortRate() != 3 {
		t.Fatalf("abort rate %f", c.AbortRate())
	}
	if (&Counters{}).AbortRate() != 0 {
		t.Fatal("zero-commit abort rate not 0")
	}
}

// Property: residencies always partition procs x window, regardless of
// the transition pattern.
func TestQuickResidencyPartition(t *testing.T) {
	f := func(seed uint64, nProcsRaw, nTransRaw uint8) bool {
		procs := int(nProcsRaw%4) + 1
		trans := int(nTransRaw % 50)
		rng := sim.NewRNG(seed, 9)
		l := NewLedger(procs)
		now := sim.Time(0)
		for i := 0; i < trans; i++ {
			now += sim.Time(rng.Intn(20))
			l.Transition(rng.Intn(procs), State(rng.Intn(int(NumStates))), now)
		}
		end := now + sim.Time(rng.Intn(10)+1)
		l.Close(end)
		tot := l.TotalResidency(0, end)
		var sum sim.Time
		for s := 0; s < NumStates; s++ {
			sum += tot[s]
		}
		return sum == sim.Time(procs)*end
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// mustPanic fails the test unless f panics with a message containing want.
func mustPanic(t *testing.T, what, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Errorf("%s did not panic", what)
			return
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Errorf("%s panicked with %q, want it to mention %q", what, msg, want)
		}
	}()
	f()
}

// TestTotalsLedgerAnswersWholeRunOnly checks both ledgers without a
// timeline — a totals ledger and a restored one — answer every whole-run
// query and refuse Segments and windowed Residency instead of making a
// layout up.
func TestTotalsLedgerAnswersWholeRunOnly(t *testing.T) {
	recorded := NewTotalsLedger(2)
	recorded.Transition(0, StateMiss, 10)
	recorded.Transition(0, StateRun, 30)
	recorded.Transition(1, StateGated, 50)
	recorded.Close(100)
	want := [][NumStates]sim.Time{{80, 20, 0, 0}, {50, 0, 0, 50}}
	restored := RestoreLedger(want, 100)

	for name, l := range map[string]*Ledger{"totals": recorded, "restored": restored} {
		if l.HasTimeline() {
			t.Errorf("%s ledger claims a timeline", name)
		}
		if !l.Closed() || l.End() != 100 || l.Procs() != 2 {
			t.Errorf("%s ledger: closed %v, end %d, procs %d", name, l.Closed(), l.End(), l.Procs())
		}
		if got := l.ResidencyTotals(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s ResidencyTotals %v, want %v", name, got, want)
		}
		if got := l.Residency(-5, 200); !reflect.DeepEqual(got, want) {
			t.Errorf("%s Residency over a covering window %v, want %v", name, got, want)
		}
		if got := l.TotalResidency(0, 100); got != [NumStates]sim.Time{130, 20, 0, 50} {
			t.Errorf("%s TotalResidency %v", name, got)
		}
		mustPanic(t, name+" Segments", "without a timeline", func() { l.Segments(0) })
		mustPanic(t, name+" windowed Residency", "without a timeline", func() { l.Residency(15, 25) })
		mustPanic(t, name+" short TotalResidency", "without a timeline", func() { l.TotalResidency(0, 99) })
	}

	// The totals are copies: editing what a query returned, or the rows
	// a ledger was restored from, leaves the ledger alone.
	recorded.ResidencyTotals()[0][StateRun] = 0
	want[1][StateRun] = 0
	if got := recorded.ResidencyTotals()[0][StateRun]; got != 80 {
		t.Errorf("returned totals alias the ledger: run %d after edit", got)
	}
	if got := restored.ResidencyTotals()[1][StateRun]; got != 50 {
		t.Errorf("restored ledger aliases its input: run %d after edit", got)
	}
}

// Property: a totals ledger and a timeline ledger fed the same
// transitions agree on every whole-run residency, and the timeline's
// segments sum to it.
func TestQuickTotalsMatchTimeline(t *testing.T) {
	f := func(seed uint64, nProcsRaw, nTransRaw uint8) bool {
		procs := int(nProcsRaw%4) + 1
		trans := int(nTransRaw % 50)
		rng := sim.NewRNG(seed, 9)
		timeline, totals := NewLedger(procs), NewTotalsLedger(procs)
		now := sim.Time(0)
		for i := 0; i < trans; i++ {
			now += sim.Time(rng.Intn(20))
			p, s := rng.Intn(procs), State(rng.Intn(int(NumStates)))
			timeline.Transition(p, s, now)
			totals.Transition(p, s, now)
		}
		end := now + sim.Time(rng.Intn(10)+1)
		timeline.Close(end)
		totals.Close(end)
		sums := make([][NumStates]sim.Time, procs)
		for p := range sums {
			for _, seg := range timeline.Segments(p) {
				sums[p][seg.State] += seg.To - seg.From
			}
		}
		return reflect.DeepEqual(timeline.ResidencyTotals(), sums) &&
			reflect.DeepEqual(totals.ResidencyTotals(), sums)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
