package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/tcc"
	"repro/internal/tracestore"
	"repro/internal/workload"
)

// span is one timed layer call of the traced run. Parent is -1 for a
// root. Times are nanoseconds from the start of the run.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory. The traced run is one
// goroutine, so the open spans form a stack. A nil tracer records
// nothing.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open) - 1
	t.spans[t.open[n]].End = int64(time.Since(t.t0))
	t.open = t.open[:n]
}

// do runs f inside a span named name.
func (t *tracer) do(name string, f func() error) error {
	t.begin(name)
	defer t.end()
	return f()
}

// spanTotals sums, per span name, the call count and total duration,
// and per layer (the name's first dot-separated element) the self time:
// each span's duration minus the part its child spans cover.
func spanTotals(spans []span) (count map[string]int, total map[string]time.Duration, self map[string]time.Duration) {
	count, total, self = map[string]int{}, map[string]time.Duration{}, map[string]time.Duration{}
	childTime := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childTime[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range spans {
		d := s.End - s.Start
		count[s.Name]++
		total[s.Name] += time.Duration(d)
		layer, _, _ := strings.Cut(s.Name, ".")
		self[layer] += time.Duration(d - childTime[i])
	}
	return count, total, self
}

// pass is what the traced run computed.
type pass struct {
	wall   time.Duration
	cells  int
	counts tally
	fired  uint64
	ops    []int // total operations of each distinct trace
	rows   int   // journal records x technology points re-priced
	digest string
}

// tracedPass drives the workload's cells one at a time through the
// layer calls, recording a span around each: provisioning (generate,
// publish into a fresh store, load back through another handle), System
// build or reset, both runs with the engine's event count, the §IV
// comparison, the journal append; then per batch the campaign CSV, and
// at the end the journal read back and re-priced under every
// technology point. Cells run on the loaded trace; the wide workload's
// traces are generated and published once up front, as its warm step
// does.
func (b *bench) tracedPass(t *tracer) (*pass, error) {
	p := &pass{}
	t0 := time.Now()
	t.begin("pass")
	defer t.end()

	storeDir := filepath.Join(b.dir, "pass-store")
	if b.name == "wide" {
		b.storeDir = storeDir
		if err := b.warmStore(t); err != nil {
			return nil, err
		}
	} else if err := os.RemoveAll(storeDir); err != nil {
		return nil, err
	}
	pub, err := tracestore.Open(storeDir, tracestore.Options{})
	if err != nil {
		return nil, err
	}
	defer pub.Close()
	store, err := tracestore.Open(storeDir, tracestore.Options{})
	if err != nil {
		return nil, err
	}
	defer store.Close()
	journal := filepath.Join(b.dir, "pass.jsonl")
	if err := os.Remove(journal); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	ck, err := experiments.OpenCheckpoint(journal, b.opts.Fingerprint())
	if err != nil {
		return nil, err
	}
	defer ck.Close()

	traces := map[tracestore.Key]*workload.Trace{}
	provision := func(c experiments.Cell) (*workload.Trace, error) {
		k := b.storeKey(c)
		if tr, ok := traces[k]; ok {
			return tr, nil
		}
		if b.name != "wide" {
			var gen *workload.Trace
			if err := t.do("workload.generate", func() (err error) { gen, err = b.generate(c); return }); err != nil {
				return nil, err
			}
			if err := t.do("tracestore.publish", func() error {
				_, err := pub.GetOrGenerate(k, func() (*workload.Trace, error) { return gen, nil })
				return err
			}); err != nil {
				return nil, err
			}
		}
		var tr *workload.Trace
		err := t.do("tracestore.load", func() error {
			var ok bool
			var err error
			tr, ok, err = store.Load(k)
			if err == nil && !ok {
				err = fmt.Errorf("trace store miss for %s", c.Label())
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		ops := 0
		for i := range tr.Threads {
			ops += tr.Threads[i].TotalOps()
		}
		p.ops = append(p.ops, ops)
		traces[k] = tr
		return tr, nil
	}

	// One System serves the whole stream, reset in place while the
	// machine shape holds and rebuilt when it changes — what a session
	// pool worker's System cache does.
	var sys *tcc.System
	var shape config.Machine
	runOne := func(c experiments.Cell, gated bool, tr *workload.Trace) (*tcc.Result, error) {
		cfg := config.Default(c.Processors)
		if gated {
			cfg = cfg.WithGating(c.W0)
		}
		cfg.Seed = c.Seed
		if c.Banks > 0 {
			cfg.Machine.Banks = c.Banks
		}
		if c.Topology != "" {
			cfg.Machine.Topology = c.Topology
		}
		if sys != nil && cfg.Machine == shape {
			if err := t.do("tcc.reset", func() error { return sys.Reset(cfg, tr) }); err != nil {
				return nil, err
			}
		} else if err := t.do("tcc.build", func() (err error) { sys, err = tcc.NewSystem(cfg, tr); return }); err != nil {
			return nil, err
		}
		shape = cfg.Machine
		var res *tcc.Result
		if err := t.do("tcc.run", func() (err error) { res, err = sys.Run(); return }); err != nil {
			return nil, err
		}
		_ = t.do("sim.fired", func() error { p.fired += sys.Engine().Fired(); return nil })
		p.counts.add(res, shapeOf(c))
		return res, nil
	}

	h := sha256.New()
	for _, cells := range b.batches {
		outs := make([]*core.Outcome, len(cells))
		for i, c := range cells {
			tech, err := energy.Resolve(c.Tech)
			if err != nil {
				return nil, err
			}
			var out *core.Outcome
			err = t.do("core.pair", func() error {
				tr, err := provision(c)
				if err != nil {
					return err
				}
				ug, err := runOne(c, false, tr)
				if err != nil {
					return err
				}
				g, err := runOne(c, true, tr)
				if err != nil {
					return err
				}
				spec := core.RunSpec{App: c.App, Processors: c.Processors, Seed: c.Seed, W0: c.W0,
					Model: tech.Model(), Trace: tr}
				var cmp power.Comparison
				_ = t.do("power.compare", func() error { cmp = power.Compare(spec.Model, ug.Ledger, g.Ledger); return nil })
				out = &core.Outcome{Spec: spec, Ungated: ug, Gated: g, Comparison: cmp}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.Label(), err)
			}
			if err := checkCell(out, out.Spec.Trace.TotalTxs()); err != nil {
				return nil, fmt.Errorf("%s: %w", c.Label(), err)
			}
			if err := t.do("experiments.journal_append", func() error { return ck.Record(c, out) }); err != nil {
				return nil, err
			}
			outs[i] = out
			p.cells++
		}
		camp := &experiments.Campaign{Options: b.opts, Cells: cells, Outcomes: outs}
		if err := t.do("experiments.csv", func() error { return camp.WriteCSV(h) }); err != nil {
			return nil, err
		}
	}
	p.digest = hex.EncodeToString(h.Sum(nil))
	if err := ck.Close(); err != nil {
		return nil, err
	}
	var recs []experiments.CellRecord
	if err := t.do("experiments.journal_read", func() (err error) { recs, err = experiments.ReadJournalFile(journal); return }); err != nil {
		return nil, err
	}
	techs := energy.Names()
	var priced *experiments.Campaign
	if err := t.do("energy.reprice", func() (err error) { priced, err = experiments.Reprice(recs, techs); return }); err != nil {
		return nil, err
	}
	p.rows = len(priced.Outcomes)
	p.wall = time.Since(t0)
	return p, nil
}

// traced runs one untraced batch, then the pass untraced and traced
// (the first traced pass under a CPU profile), and reports the per-layer
// metrics.
func (b *bench) traced(w io.Writer) (*result, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ref, err := b.rep()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	res := &result{Correct: true, Attempted: b.attempted + ref.cells, Failed: b.failed + ref.failed,
		Metrics: map[string]metric{}}
	if ref.failed > 0 {
		return nil, fmt.Errorf("untraced batch: %d cells failed: %s", ref.failed, strings.Join(ref.problems, "; "))
	}
	for _, p := range ref.problems {
		fmt.Fprintln(w, "  problem:", p)
		res.Correct = false
	}
	gaps := paperGaps(ref.camps[0])
	journal, err := b.journalOf(ref)
	if err != nil {
		return nil, err
	}
	ref.camps = nil

	// The pass runs four times, untraced, traced, traced, untraced, so
	// that warm-up and drift cancel out of the tracing overhead: the
	// mean traced wall minus the mean untraced wall. The first traced
	// pass is the one reported, profiled and written out.
	var p *pass
	var t *tracer
	var prof bytes.Buffer
	var plainWall, tracedWall time.Duration
	for i, traced := range []bool{false, true, true, false} {
		runtime.GC()
		var pt *tracer
		if traced {
			pt = &tracer{t0: time.Now()}
		}
		if i == 1 {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, err
			}
		}
		q, err := b.tracedPass(pt)
		if i == 1 {
			pprof.StopCPUProfile()
		}
		if err != nil {
			return nil, err
		}
		res.Attempted += q.cells
		if q.digest != ref.digest {
			fmt.Fprintf(w, "  problem: pass %d CSV %s differs from the untraced batch's %s\n", i, q.digest, ref.digest)
			res.Correct = false
		}
		if !traced {
			plainWall += q.wall / 2
			continue
		}
		tracedWall += q.wall / 2
		if i == 1 {
			p, t = q, pt
		}
	}
	runtime.GC()
	repriced, err := repriceRates(journal, 15)
	if err != nil {
		return nil, err
	}
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	spanFile := filepath.Join(b.o.out, fmt.Sprintf("spans-%s-seed%d.json", b.name, b.o.seed))
	if err := writeJSON(spanFile, t.spans); err != nil {
		return nil, err
	}

	count, total, self := spanTotals(t.spans)
	mean := func(name string, unit time.Duration) float64 {
		if count[name] == 0 {
			return 0
		}
		return float64(total[name]) / float64(count[name]) / float64(unit)
	}
	v := map[string]float64{
		"workload.gen_ms":               mean("workload.generate", time.Millisecond),
		"tracestore.load_us":            mean("tracestore.load", time.Microsecond),
		"tracestore.publish_ms":         mean("tracestore.publish", time.Millisecond),
		"tcc.build_ms":                  mean("tcc.build", time.Millisecond),
		"tcc.reset_us":                  mean("tcc.reset", time.Microsecond),
		"tcc.run_ms":                    mean("tcc.run", time.Millisecond),
		"sim.events_per_cell":           float64(p.fired) / float64(p.cells),
		"sim.ns_per_event":              float64(total["tcc.run"]) / float64(p.fired),
		"core.pair_ms":                  mean("core.pair", time.Millisecond),
		"power.compare_us":              mean("power.compare", time.Microsecond),
		"energy.reprice_us_per_cell":    float64(total["energy.reprice"]) / float64(p.rows) / float64(time.Microsecond),
		"reprice_cells_per_s":           median(repriced),
		"experiments.csv_ms":            float64(total["experiments.csv"]) / float64(time.Millisecond),
		"experiments.journal_append_us": mean("experiments.journal_append", time.Microsecond),
		"experiments.journal_read_ms":   float64(total["experiments.journal_read"]) / float64(time.Millisecond),
		"host.allocs_per_cell":          float64(after.Mallocs-before.Mallocs) / float64(ref.cells),
		"host.alloc_mb_per_cell":        float64(after.TotalAlloc-before.TotalAlloc) / float64(ref.cells) / (1 << 20),
		"trace.overhead_s":              (tracedWall - plainWall).Seconds(),
		"trace.spans":                   float64(len(t.spans)),
	}
	ops := 0
	for _, n := range p.ops {
		ops += n
	}
	v["workload.ops_per_trace"] = float64(ops) / float64(len(p.ops))
	p.counts.metrics(v)

	// The pool's worker-seconds the batch held, against the cell work
	// the traced pass timed: what the session spends beyond cell work
	// (dispatch, a worker idle at a batch's tail, merging).
	sessionWall := ref.wall
	if b.name == "fleet" {
		sessionWall = b.localWall
	}
	provision := "workload.generate"
	if b.name == "wide" {
		provision = "tracestore.load"
	}
	work := total[provision] + total["tcc.build"] + total["tcc.reset"] + total["tcc.run"] + total["power.compare"]
	pool := workers * sessionWall
	v["experiments.session_overhead_pct"] = 100 * float64(pool-work) / float64(pool)
	if b.name == "fleet" {
		v["dist.overhead_s"] = (ref.fleet - b.localWall).Seconds()
		for _, s := range ref.wstats {
			v["dist.leases"] += float64(s.Leases)
			v["dist.retries"] += float64(s.Retries)
			v["dist.renewals"] += float64(s.Renewals)
		}
	}
	for _, pkg := range hostPackages {
		v["host_pct."+pkg] = 100 * shares[pkg]
	}
	for _, l := range selfLayers {
		v["self_ms."+l] = float64(self[l]) / float64(time.Millisecond)
	}
	for _, g := range gaps {
		v[g.Name] = g.Value
	}

	fmt.Fprintf(w, "  untraced batch %.3fs; pass over %d cells, mean %.3fs untraced, %.3fs traced; %d spans in %s\n",
		ref.wall.Seconds(), p.cells, plainWall.Seconds(), tracedWall.Seconds(), len(t.spans), spanFile)
	for _, l := range selfLayers {
		fmt.Fprintf(w, "  self time %-12s %10.3f ms\n", l, float64(self[l])/float64(time.Millisecond))
	}
	for _, m := range perLayer() {
		res.Metrics[m.Name] = metric{v[m.Name], m.Unit}
		report(w, m.Name, m.Unit, v[m.Name], nil)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	return res, nil
}

// tally accumulates the simulator's own counts over every run the
// traced pass makes: commits and aborts, gated residency, cache and
// directory activity, and interconnect traffic in total ("") and per
// wide shape.
type tally struct {
	commits, aborts, gated, gatedSpan, hits, misses float64
	overflows, dirReads, dirLines, dirGatings       float64
	links                                           map[string]*linkTally
}

type linkTally struct{ sends, wait, busy, rounds, capacity float64 }

func (t *tally) add(r *tcc.Result, shape string) {
	if t.links == nil {
		t.links = map[string]*linkTally{"": {}}
		for _, s := range busShapes {
			t.links[s] = &linkTally{}
		}
	}
	t.commits += float64(r.Counters.Commits)
	t.aborts += float64(r.Counters.Aborts + r.Counters.ValidationAborts + r.Counters.SelfAborts)
	if r.Gated {
		for _, tot := range r.Ledger.ResidencyTotals() {
			t.gated += float64(tot[stats.StateGated])
			t.gatedSpan += float64(r.Ledger.End())
		}
	}
	for _, c := range r.CachePerProc {
		t.hits += float64(c.Hits)
		t.misses += float64(c.Misses)
		t.overflows += float64(c.Overflows)
	}
	for _, d := range r.DirStats {
		t.dirReads += float64(d.Reads)
		t.dirLines += float64(d.LinesCommitted)
		t.dirGatings += float64(d.Gatings)
	}
	for _, key := range []string{"", shape} {
		if l := t.links[key]; l != nil {
			l.sends += float64(r.BusStats.Messages)
			l.wait += float64(r.BusStats.WaitCycles)
			l.busy += float64(r.BusStats.BusyCycles)
			l.rounds += float64(r.BusStats.Rounds)
			l.capacity += float64(r.Cycles) * float64(len(r.BankStats))
		}
	}
}

// metrics writes the tallied counts and ratios into v. A ratio over
// nothing (a shape the workload does not run) is 0.
func (t *tally) metrics(v map[string]float64) {
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	v["tcc.commits"] = t.commits
	v["tcc.aborts_per_commit"] = ratio(t.aborts, t.commits)
	v["tcc.gated_share"] = ratio(t.gated, t.gatedSpan)
	v["cache.hit_ratio"] = ratio(t.hits, t.hits+t.misses)
	v["cache.overflows"] = t.overflows
	v["directory.reads"] = t.dirReads
	v["directory.lines_committed"] = t.dirLines
	v["directory.gatings"] = t.dirGatings
	for key, l := range t.links {
		sfx := ""
		if key != "" {
			sfx = "." + key
		}
		v["bus.link_sends"+sfx] = l.sends
		v["bus.wait_cycles_per_link_send"+sfx] = ratio(l.wait, l.sends)
		v["bus.busy_share"+sfx] = ratio(l.busy, l.capacity)
		v["bus.sends_per_round"+sfx] = ratio(l.sends, l.rounds)
	}
}

func writeJSON(path string, v any) error {
	buf, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
