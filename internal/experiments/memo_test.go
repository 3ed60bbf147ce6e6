package experiments

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/stamp"
	"repro/internal/tcc"
)

// outcomesCSV renders cells and their outcomes as a campaign CSV.
func outcomesCSV(t *testing.T, o Options, cells []Cell, outs []*core.Outcome) string {
	t.Helper()
	var buf strings.Builder
	camp := &Campaign{Options: o, Cells: cells, Outcomes: outs}
	if err := camp.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestSessionRunMemo runs the paper campaign and then Figure 7 on one
// Session, as `experiments -all` does. Fig7's W0 axis never reaches the
// ungated run, and its W0=8 gated run is the campaign cell's, so the 54
// cells' 108 runs hold 54 distinct ones: the Session must simulate
// exactly those and share the rest. A session without the trace cache
// (and with it the memo) simulates all 108, and both sessions' CSVs must
// match byte for byte.
func TestSessionRunMemo(t *testing.T) {
	run := func(noCache bool) (string, *Session) {
		o := Options{Seed: 42, Scale: 0.02, Workers: 2, NoTraceCache: noCache}
		s := NewSession(o)
		t.Cleanup(func() { s.Close() })
		var csv string
		for _, cells := range [][]Cell{o.Cells(), fig7Cells(o)} {
			outs, err := s.RunCells(context.Background(), cells)
			if err != nil {
				t.Fatalf("noTraceCache=%v: %v", noCache, err)
			}
			csv += outcomesCSV(t, o, cells, outs)
		}
		return csv, s
	}
	memoCSV, memo := run(false)
	freshCSV, fresh := run(true)
	if memo.Simulated() != 54 || memo.Shared() != 54 {
		t.Errorf("campaign + Fig7: %d runs simulated, %d shared; want 54 and 54",
			memo.Simulated(), memo.Shared())
	}
	if fresh.Simulated() != 108 || fresh.Shared() != 0 {
		t.Errorf("without the trace cache: %d runs simulated, %d shared; want 108 and 0",
			fresh.Simulated(), fresh.Shared())
	}
	if memoCSV != freshCSV {
		t.Fatal("campaign + Fig7 CSVs differ between the memoized and the unmemoized session")
	}
}

// TestSessionRunMemoCancel cancels a stream mid-run, then re-runs the
// same cells on the same Session: runs the cancellation cut short must
// not have been memoized, so the re-run reproduces a fresh Session's CSV
// byte for byte and, across both passes, simulates each distinct run
// exactly once. The stream leads with a tiny uniprocessor cell, so its
// delivery (which cancels) finds the other worker inside a 16p run of
// the Fig7 sweep behind it.
func TestSessionRunMemoCancel(t *testing.T) {
	o := Options{Seed: 42, Scale: 0.1, Workers: 2, Processors: []int{16}}
	cells := append([]Cell{{App: stamp.Genome, Processors: 1, Contention: ContentionBase, Seed: 42}}, fig7Cells(o)...)
	for i := range cells {
		cells[i].Index = i
	}
	const distinct = 2 + 3 + 15 // the 1p pair, 16p: one ungated run per app, one gated run per (app, W0)
	s := NewSession(o)
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	delivered := 0
	for _, err := range s.Stream(ctx, cells) {
		if err != nil {
			continue
		}
		if delivered++; delivered == 1 {
			cancel()
		}
	}
	cancel()
	if got := s.Simulated(); got >= distinct {
		t.Fatalf("the cancelled stream simulated %d runs: it was not cut short", got)
	}

	outs, err := s.RunCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewSession(o)
	defer fresh.Close()
	fouts, err := fresh.RunCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if outcomesCSV(t, o, cells, outs) != outcomesCSV(t, o, cells, fouts) {
		t.Fatal("re-run after a cancelled stream differs from a fresh Session")
	}
	if got := s.Simulated(); got != distinct {
		t.Errorf("cancelled stream plus re-run simulated %d runs, want the %d distinct ones", got, distinct)
	}
}

// TestSessionRunMemoFailure drives the memo directly: a failed run leaves
// no entry, so a cell waiting on it (or arriving after it) simulates the
// run itself; a waiter whose context ends stops waiting; and a succeeded
// run is shared.
func TestSessionRunMemoFailure(t *testing.T) {
	s := NewSession(Options{})
	defer s.Close()
	e := &traceEntry{}
	cfg := config.Default(2)
	bg := context.Background()

	started, release := make(chan struct{}), make(chan struct{})
	boom := errors.New("boom")
	leader := make(chan error)
	go func() {
		_, err := s.memoRun(bg, e, cfg, func() (*tcc.Result, error) {
			close(started)
			<-release
			return nil, boom
		})
		leader <- err
	}()
	<-started

	cancelled, cancel := context.WithCancel(bg)
	cancel()
	if _, err := s.memoRun(cancelled, e, cfg, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter with an ended context got %v, want context.Canceled", err)
	}

	want := &tcc.Result{Cycles: 1}
	type reply struct {
		res *tcc.Result
		err error
	}
	waiter := make(chan reply)
	go func() {
		res, err := s.memoRun(bg, e, cfg, func() (*tcc.Result, error) { return want, nil })
		waiter <- reply{res, err}
	}()
	close(release)
	if err := <-leader; !errors.Is(err, boom) {
		t.Fatalf("leader got %v, want its own failure", err)
	}
	if r := <-waiter; r.err != nil || r.res != want {
		t.Fatalf("waiter got (%v, %v), want its own successful run", r.res, r.err)
	}
	if s.Simulated() != 1 || s.Shared() != 0 {
		t.Fatalf("after one failed and one successful run: %d simulated, %d shared; want 1 and 0",
			s.Simulated(), s.Shared())
	}
	res, err := s.memoRun(bg, e, cfg, func() (*tcc.Result, error) {
		t.Fatal("a memoized run was simulated again")
		return nil, nil
	})
	if err != nil || res != want || s.Shared() != 1 {
		t.Fatalf("memoized run: got (%v, %v) with %d shared, want the stored result shared once", res, err, s.Shared())
	}
}

// TestRunMemoKeyAudit pins the run memo's key the way
// TestTraceCacheKeyAudit pins the trace cache's. Every Cell field must be
// classified here: it reaches the run key (through traceKey or the run's
// config.Config), reaches only the gated run's config (W0), only the
// pricing (Tech), or nothing the simulation sees (Index, ID). Each field
// is perturbed against a base cell on one Session, and the number of runs
// the Session simulates must match the class. Whatever the memo shares is
// checked against the perturbed cell simulated on a Session without the
// memo, so a field that changes the simulation outside config.Config
// fails here instead of silently sharing runs.
func TestRunMemoKeyAudit(t *testing.T) {
	const (
		runKey      = iota // both runs differ from the base cell's
		gatedOnly          // the ungated run is shared, the gated run differs
		pricingOnly        // both runs are shared; only the power model differs
		labelOnly          // both runs are shared
	)
	simulated := map[int]uint64{runKey: 4, gatedOnly: 3, pricingOnly: 2, labelOnly: 2}
	fields := map[string]struct {
		class   int
		perturb func(*Cell)
	}{
		"Index":      {labelOnly, func(c *Cell) { c.Index = 1 }},
		"ID":         {labelOnly, func(c *Cell) { c.ID = "M99999" }},
		"App":        {runKey, func(c *Cell) { c.App = stamp.Genome }},
		"Processors": {runKey, func(c *Cell) { c.Processors = 8 }},
		"W0":         {gatedOnly, func(c *Cell) { c.W0 = 4 }},
		"Contention": {runKey, func(c *Cell) { c.Contention = ContentionHigh }},
		"Banks":      {runKey, func(c *Cell) { c.Banks = 4 }},
		"Topology":   {runKey, func(c *Cell) { c.Topology = "xbar" }},
		"Tech":       {pricingOnly, func(c *Cell) { c.Tech = "t45" }},
		"Seed":       {runKey, func(c *Cell) { c.Seed = 8 }},
		"Variant":    {runKey, func(c *Cell) { c.Variant = VariantRenewalOff }},
	}
	typ := reflect.TypeOf(Cell{})
	for i := 0; i < typ.NumField(); i++ {
		if _, ok := fields[typ.Field(i).Name]; !ok {
			t.Errorf("Cell.%s is not classified: say how it reaches the run memo's key", typ.Field(i).Name)
		}
	}
	if len(fields) != typ.NumField() {
		t.Errorf("%d fields classified, Cell has %d", len(fields), typ.NumField())
	}

	base := Cell{App: stamp.Intruder, Processors: 4, Contention: ContentionBase, Seed: 7}
	for name, f := range fields {
		t.Run(name, func(t *testing.T) {
			c := base
			f.perturb(&c)
			if c == base {
				t.Fatal("perturbation leaves the cell unchanged")
			}
			o := Options{Seed: 7, Scale: 0.02, Workers: 2}
			s := NewSession(o)
			defer s.Close()
			outs, err := s.RunCells(context.Background(), []Cell{base, c})
			if err != nil {
				t.Fatal(err)
			}
			if want := simulated[f.class]; s.Simulated() != want || s.Shared() != 4-want {
				t.Errorf("base plus perturbed cell: %d runs simulated, %d shared; want %d and %d",
					s.Simulated(), s.Shared(), want, 4-want)
			}

			o.NoTraceCache = true
			fresh := NewSession(o)
			defer fresh.Close()
			fouts, err := fresh.RunCells(context.Background(), []Cell{c})
			if err != nil {
				t.Fatal(err)
			}
			got, want := outs[1], fouts[0]
			if !reflect.DeepEqual(got.Ungated, want.Ungated) || !reflect.DeepEqual(got.Gated, want.Gated) {
				t.Error("the memo served runs that differ from the cell's own simulation")
			}
			if outcomesCSV(t, o, []Cell{c}, []*core.Outcome{got}) != outcomesCSV(t, o, []Cell{c}, []*core.Outcome{want}) {
				t.Error("the memoized cell's CSV row differs from its own simulation's")
			}
		})
	}
}
