package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	clockgate "repro"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/stamp"
	"repro/internal/tcc"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// workers is the simulation goroutine count of every workload: the
// paper and wide sessions run two pool workers, the fleet two one-worker
// processes' worth of Work loops.
const workers = 2

// bench is one workload's state across a run.
type bench struct {
	o       options
	name    string
	scale   float64
	dir     string              // scratch directory, removed at exit
	opts    experiments.Options // the workload's campaign options
	batches [][]experiments.Cell

	// wide: the trace store warmed once before timing.
	storeDir string
	// fleet: the local Session reference the fleet must reproduce, and
	// each reference cell's trace transaction count for the commit check.
	localDigest string
	localWall   time.Duration
	txs         map[string]int
	failed      int // cells failed outside the timed batches
	attempted   int
}

// rep is one timed batch of a workload.
type rep struct {
	wall     time.Duration // the whole batch, as a user waits for it
	setup    time.Duration // batch start to the first completed cell
	fleet    time.Duration // fleet: Serve start to every worker gone
	peakHeap uint64
	cells    int
	failed   int
	problems []string // wrong outputs beyond per-cell failures
	digest   string   // SHA-256 of the batch's campaign CSV
	camps    []*experiments.Campaign
	journal  string
	wstats   []dist.WorkerStats
}

func newBench(o options) (*bench, error) {
	b := &bench{o: o, name: o.workload}
	switch o.workload {
	case "paper":
		b.scale = o.sizes.paper
		b.opts = experiments.Options{Seed: o.seed, Scale: b.scale, Workers: workers}
		b.batches = [][]experiments.Cell{b.opts.Cells(), fig7Cells(b.opts)}
	case "wide":
		b.scale = o.sizes.wide
		b.opts = experiments.Options{Seed: o.seed, Scale: b.scale, Workers: workers}
		b.batches = [][]experiments.Cell{wideCells(o.seed)}
	case "fleet":
		b.scale = o.sizes.fleet
		b.opts = experiments.Options{Seed: o.seed, Scale: b.scale, Workers: workers,
			Apps: stamp.AllApps(), Processors: []int{4, 8, 16, 32}}
		b.batches = [][]experiments.Cell{b.opts.Cells()}
	default:
		return nil, fmt.Errorf("unknown workload %q (want paper, wide or fleet)", o.workload)
	}
	b.dir = filepath.Join(o.out, fmt.Sprintf("work-%s-%d-%d", b.name, o.seed, os.Getpid()))
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *bench) cleanup() { os.RemoveAll(b.dir) }

// fig7Cells is the Figure 7 W0 sweep of `experiments -all`: every
// (Np, W0, app) point on the campaign seed, in the sweep's order.
func fig7Cells(o experiments.Options) []experiments.Cell {
	var cells []experiments.Cell
	for _, np := range []int{4, 8, 16} {
		for _, w0 := range experiments.Fig7W0Values {
			for _, app := range stamp.PaperApps() {
				cells = append(cells, experiments.Cell{Index: len(cells), App: app, Processors: np,
					W0: w0, Contention: experiments.ContentionBase, Seed: o.Seed})
			}
		}
	}
	return cells
}

// wideCells are intruder and genome on the 128-processor machine over
// the four wide interconnect shapes, costliest shape first (the mesh's
// genome cell alone is over a third of the batch's cell time), so the
// batch's tail is cheap cells and its two workers finish together. The
// last two cells share a shape, so each worker ends holding the same
// kind of System.
func wideCells(seed uint64) []experiments.Cell {
	var cells []experiments.Cell
	for _, shape := range []string{"mesh", "banks4", "banks1", "xbar"} {
		for _, app := range []stamp.App{stamp.Genome, stamp.Intruder} {
			c := experiments.Cell{Index: len(cells), App: app, Processors: 128,
				Contention: experiments.ContentionBase, Seed: seed}
			switch shape {
			case "banks1":
				c.Banks = 1
			case "banks4":
				c.Banks = 4
			default:
				c.Topology = shape
			}
			cells = append(cells, c)
		}
	}
	return cells
}

// shapeOf names a cell's interconnect shape as the bus.* metrics do.
func shapeOf(c experiments.Cell) string {
	switch {
	case c.Banks > 0:
		return fmt.Sprintf("banks%d", c.Banks)
	case c.Topology != "":
		return c.Topology
	}
	return "bus"
}

// storeKey is the trace-store key a session uses for the cell's trace.
func (b *bench) storeKey(c experiments.Cell) tracestore.Key {
	return tracestore.Key{App: string(c.App), Threads: c.Processors, Scale: b.scale,
		Contention: string(experiments.ContentionBase), Seed: c.Seed}
}

// generate builds the cell's trace the way a session does.
func (b *bench) generate(c experiments.Cell) (*workload.Trace, error) {
	spec, err := experiments.ScaledSpec(c.App, c.Processors, b.scale)
	if err != nil {
		return nil, err
	}
	return spec.Generate(c.Processors, c.Seed)
}

// prepare does the work users do once, before the timed batches: the
// wide workload warms its trace store; the fleet runs the same cells on
// a local Session, the reference its CSV must match.
func (b *bench) prepare() error {
	switch b.name {
	case "wide":
		b.storeDir = filepath.Join(b.dir, "store")
		return b.warmStore(nil)
	case "fleet":
		s := experiments.NewSession(b.opts)
		defer s.Close()
		t0 := time.Now()
		outs, errs := runBatch(s, b.batches[0], t0, nil)
		b.localWall = time.Since(t0)
		b.txs = map[string]int{}
		b.attempted += len(outs)
		for i, out := range outs {
			if errs[i] == nil {
				b.txs[b.batches[0][i].Key()] = out.Spec.Trace.TotalTxs()
				errs[i] = checkCell(out, out.Spec.Trace.TotalTxs())
			}
			if errs[i] != nil {
				b.failed++
			}
		}
		if b.failed > 0 {
			return nil // no reference CSV: every fleet batch is flagged
		}
		d, err := csvDigest(b.opts, b.batches[0], outs)
		b.localDigest = d
		return err
	}
	return nil
}

// warmStore generates and publishes every distinct wide trace into a
// fresh store; t, when set, records a span around each call.
func (b *bench) warmStore(t *tracer) error {
	if err := os.RemoveAll(b.storeDir); err != nil {
		return err
	}
	st, err := tracestore.Open(b.storeDir, tracestore.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	seen := map[tracestore.Key]bool{}
	for _, c := range b.batches[0] {
		k := b.storeKey(c)
		if seen[k] {
			continue
		}
		seen[k] = true
		var tr *workload.Trace
		if err := t.do("workload.generate", func() (err error) { tr, err = b.generate(c); return }); err != nil {
			return err
		}
		if err := t.do("tracestore.publish", func() error {
			_, err := st.GetOrGenerate(k, func() (*workload.Trace, error) { return tr, nil })
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// timed runs batches for at least d (and at least minReps batches) and
// reports the end-to-end metrics.
func (b *bench) timed(w io.Writer, d time.Duration) (*result, error) {
	var reps []*rep
	var gaps []gap
	start := time.Now()
	for len(reps) < minReps || time.Since(start) < d {
		r, err := b.rep()
		if err != nil {
			return nil, err
		}
		if gaps == nil && r.failed == 0 {
			gaps = paperGaps(r.camps[0])
		}
		r.camps = nil // keep one batch's outcomes live at a time, not all
		reps = append(reps, r)
	}
	res := &result{Correct: true, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	var wall, rate, setup, heap []float64
	for i, r := range reps {
		wall = append(wall, r.wall.Seconds())
		rate = append(rate, float64(r.cells)/r.wall.Seconds())
		setup = append(setup, r.setup.Seconds())
		heap = append(heap, float64(r.peakHeap)/(1<<20))
		res.Attempted += r.cells
		res.Failed += r.failed
		fmt.Fprintf(w, "  batch %d: wall %.4fs setup %.4fs live heap %.1f MiB, %d cells, %d failed\n",
			i, r.wall.Seconds(), r.setup.Seconds(), float64(r.peakHeap)/(1<<20), r.cells, r.failed)
		if r.digest != reps[0].digest {
			r.problems = append(r.problems, fmt.Sprintf("batch %d CSV digest %s differs from batch 0's %s", i, r.digest, reps[0].digest))
		}
		for _, p := range r.problems {
			fmt.Fprintln(w, "  problem:", p)
			res.Correct = false
		}
	}
	last := reps[len(reps)-1]
	fmt.Fprintf(w, "  repeats=%d seconds=%.3g cells/batch=%d csv_sha256=%s\n", len(reps), time.Since(start).Seconds(), last.cells, last.digest)
	vals := map[string][]float64{"wall_s": wall, "cells_per_s": rate, "setup_s": setup, "peak_heap_mb": heap}
	for _, m := range endToEnd {
		v := median(vals[m.Name])
		res.Metrics[m.Name] = metric{v, m.Unit}
		report(w, m.Name, m.Unit, v, vals[m.Name])
	}
	report(w, "fail_ratio", "ratio", float64(res.Failed)/float64(res.Attempted), nil)
	for _, g := range gaps {
		report(w, g.Name, g.Unit, g.Value, nil)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	return res, nil
}

// rep runs one timed batch of the workload.
func (b *bench) rep() (*rep, error) {
	runtime.GC()
	if b.name == "fleet" {
		return b.fleetRep()
	}
	return b.sessionRep()
}

// sessionRep is one paper or wide batch: a fresh Session (with the
// warmed store for wide) running the workload's cell batches in order,
// as `experiments -all` runs the campaign and then Figure 7.
func (b *bench) sessionRep() (*rep, error) {
	r := &rep{}
	opts := b.opts
	opts.TraceDir = b.storeDir
	t0 := time.Now()
	s := experiments.NewSession(opts)
	outs := make([][]*core.Outcome, len(b.batches))
	errs := make([][]error, len(b.batches))
	for i, cells := range b.batches {
		outs[i], errs[i] = runBatch(s, cells, t0, &r.setup)
	}
	r.wall = time.Since(t0)
	// Checks run before Close: store-loaded traces alias mappings Close
	// releases.
	h := sha256.New()
	for i, cells := range b.batches {
		for j, out := range outs[i] {
			r.cells++
			err := errs[i][j]
			if err == nil {
				err = checkCell(out, out.Spec.Trace.TotalTxs())
			}
			if err != nil {
				r.failed++
				r.problems = append(r.problems, fmt.Sprintf("%s: %v", cells[j].Label(), err))
			}
		}
		camp := &experiments.Campaign{Options: b.opts, Cells: cells, Outcomes: outs[i]}
		r.camps = append(r.camps, camp)
		if r.failed == 0 {
			if err := camp.WriteCSV(h); err != nil {
				return nil, err
			}
		}
	}
	r.digest = hex.EncodeToString(h.Sum(nil))
	r.peakHeap = liveHeap()
	if err := s.Close(); err != nil {
		return nil, err
	}
	return r, nil
}

// fleetRep is one fleet batch: a loopback coordinator journaling to a
// fresh file, two one-worker Work loops, then the journal re-priced under
// every registered technology point.
func (b *bench) fleetRep() (*rep, error) {
	r := &rep{journal: filepath.Join(b.dir, "fleet.jsonl")}
	if err := os.Remove(r.journal); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	transport := http.DefaultTransport.(*http.Transport).Clone()
	defer transport.CloseIdleConnections()
	t0 := time.Now()
	first := &firstReturn{base: transport, t0: t0}
	client := &http.Client{Timeout: 30 * time.Second, Transport: first}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	r.wstats = make([]dist.WorkerStats, workers)
	werrs := make([]error, workers)
	camp, err := clockgate.Serve(ctx, "127.0.0.1:0", b.opts, clockgate.ServeConfig{
		CheckpointPath: r.journal,
		OnListen: func(addr string) {
			for i := range workers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					r.wstats[i], werrs[i] = clockgate.Work(ctx, addr, clockgate.WorkerConfig{
						Name: fmt.Sprintf("w%d", i), Workers: 1, Client: client})
				}()
			}
		},
	})
	if err != nil {
		cancel()
	}
	wg.Wait()
	r.fleet = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	for i, werr := range werrs {
		if werr != nil {
			return nil, fmt.Errorf("fleet worker %d: %w", i, werr)
		}
	}
	if _, err := clockgate.Reprice(r.journal, energy.Names()...); err != nil {
		return nil, err
	}
	r.wall = time.Since(t0)
	r.setup = time.Duration(first.at.Load())
	r.camps = []*experiments.Campaign{camp}

	for i, out := range camp.Outcomes {
		r.cells++
		if err := checkCell(out, b.txs[camp.Cells[i].Key()]); err != nil {
			r.failed++
			r.problems = append(r.problems, fmt.Sprintf("%s: %v", camp.Cells[i].Label(), err))
		}
	}
	var buf bytes.Buffer
	if err := camp.WriteCSV(&buf); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(buf.Bytes())
	r.digest = hex.EncodeToString(sum[:])
	if r.digest != b.localDigest {
		r.problems = append(r.problems, "fleet CSV differs from the local Session run of the same cells")
	}
	own, err := clockgate.Reprice(r.journal)
	if err != nil {
		return nil, err
	}
	var rebuf bytes.Buffer
	if err := own.WriteCSV(&rebuf); err != nil {
		return nil, err
	}
	if !bytes.Equal(rebuf.Bytes(), buf.Bytes()) {
		r.problems = append(r.problems, "journal re-priced under its own tech does not reproduce the fleet CSV")
	}
	transport.CloseIdleConnections()
	r.peakHeap = liveHeap()
	return r, nil
}

// firstReturn is the fleet workers' HTTP transport: it notes when the
// coordinator first accepts a returned cell.
type firstReturn struct {
	base http.RoundTripper
	t0   time.Time
	at   atomic.Int64 // nanoseconds after t0; 0 until the first return
}

func (f *firstReturn) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := f.base.RoundTrip(req)
	if err == nil && resp.StatusCode == http.StatusOK && req.URL.Path == "/v1/return" {
		f.at.CompareAndSwap(0, int64(time.Since(f.t0)))
	}
	return resp, err
}

// runBatch runs cells on the session and returns their outcomes and
// errors in cell order. When first is non-nil and still zero, it is set
// to the time from t0 to the first completed cell.
func runBatch(s *experiments.Session, cells []experiments.Cell, t0 time.Time, first *time.Duration) ([]*core.Outcome, []error) {
	outs := make([]*core.Outcome, len(cells))
	errs := make([]error, len(cells))
	for res := range s.StreamChan(context.Background(), cells) {
		if first != nil && *first == 0 {
			*first = time.Since(t0)
		}
		outs[res.Pos], errs[res.Pos] = res.Outcome, res.Err
	}
	return outs, errs
}

// checkCell fails a cell whose processors' residency totals do not sum
// to the ledger's end time, or whose runs did not commit every
// transaction of its trace exactly once.
func checkCell(out *core.Outcome, txs int) error {
	for _, r := range []struct {
		name string
		res  *tcc.Result
	}{{"ungated", out.Ungated}, {"gated", out.Gated}} {
		res := r.res
		end := res.Ledger.End()
		for p, tot := range res.Ledger.ResidencyTotals() {
			var sum sim.Time
			for _, v := range tot {
				sum += v
			}
			if sum != end {
				return fmt.Errorf("%s run: processor %d residency sums to %d, ledger ends at %d", r.name, p, sum, end)
			}
		}
		if got := int(res.Counters.Commits); got != txs {
			return fmt.Errorf("%s run: %d commits for a %d-transaction trace", r.name, got, txs)
		}
	}
	return nil
}

// csvDigest is the SHA-256 of the cells' campaign CSV.
func csvDigest(o experiments.Options, cells []experiments.Cell, outs []*core.Outcome) (string, error) {
	h := sha256.New()
	camp := &experiments.Campaign{Options: o, Cells: cells, Outcomes: outs}
	if err := camp.WriteCSV(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// journalOf returns the batch's journal. Paper and wide keep none, so
// their batch is journaled here, untimed.
func (b *bench) journalOf(r *rep) (string, error) {
	if r.journal != "" {
		return r.journal, nil
	}
	journal := filepath.Join(b.dir, "batch.jsonl")
	if err := os.Remove(journal); err != nil && !os.IsNotExist(err) {
		return "", err
	}
	ck, err := experiments.OpenCheckpoint(journal, b.opts.Fingerprint())
	if err != nil {
		return "", err
	}
	for _, camp := range r.camps {
		for i, c := range camp.Cells {
			if err := ck.Record(c, camp.Outcomes[i]); err != nil {
				ck.Close()
				return "", err
			}
		}
	}
	return journal, ck.Close()
}

// repriceRates measures experiments.Reprice re-pricing the journal's
// records under every registered technology point: records × techs per
// second, one sample per 100 ms window of calls. The journal is read
// once, outside the windows; reading it is experiments.journal_read_ms.
func repriceRates(journal string, windows int) ([]float64, error) {
	recs, err := experiments.ReadJournalFile(journal)
	if err != nil {
		return nil, err
	}
	techs := energy.Names()
	var rates []float64
	for range windows {
		rows := 0
		t0 := time.Now()
		for rows == 0 || time.Since(t0) < 100*time.Millisecond {
			c, err := experiments.Reprice(recs, techs)
			if err != nil {
				return nil, err
			}
			rows += len(c.Outcomes)
		}
		rates = append(rates, float64(rows)/time.Since(t0).Seconds())
	}
	return rates, nil
}

// liveHeap forces a garbage collection and returns the bytes it found
// live. Called at a batch's end, while the batch's session, caches and
// results are still held, it is the batch's peak live heap measured at
// the one point where it does not depend on when collections happen to
// run.
func liveHeap() uint64 {
	// The second collection frees what the first left in sync.Pool
	// victim caches.
	runtime.GC()
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// gap is one named distance from the paper's headline figures.
type gap struct {
	Name, Unit string
	Value      float64
}

// paperGaps are the campaign's distances, in percentage points, from the
// paper's headline +4 % speed-up, 19 % energy and 13 % power reductions.
func paperGaps(c *experiments.Campaign) []gap {
	s := c.Summarize()
	abs := func(x float64) float64 {
		if x < 0 {
			return -x
		}
		return x
	}
	return []gap{
		{"speedup_err_pp", "pp", abs((s.AvgSpeedUp-1)*100 - 4)},
		{"energy_err_pp", "pp", abs(s.AvgEnergyReduction*100 - 19)},
		{"power_err_pp", "pp", abs(s.AvgPowerReduction*100 - 13)},
	}
}
