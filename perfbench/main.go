// Command perfbench is the repository's campaign benchmark. One command
// runs one of three closed-batch workloads — paper, wide or fleet (see
// README.md for why each exists) — for a fixed number of seconds, checks
// every output, and prints every metric by name with its unit, ending
// with one JSON line:
//
//	bash perfbench/run.sh --workload paper --seed 42 --seconds 35 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics, each the
// median of repeated batches. With --trace 1 it carries the per-layer
// metrics of a separate traced run: the workload's cells driven one at a
// time through the layer calls, a span recorded around each call, and a
// CPU profile rolled up by package. Every layer is measured from outside,
// by timing calls into public functions; the program itself is untouched.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricSpec names one emitted metric and its unit.
type metricSpec struct {
	Name string
	Unit string
}

// endToEnd lists the metrics of an untraced run (--trace 0).
var endToEnd = []metricSpec{
	{"wall_s", "s"},
	{"cells_per_s", "cells/s"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MiB"},
}

// busShapes are the interconnect shapes the wide workload sweeps; each
// gets its own bus.* metrics next to the all-shape totals.
var busShapes = []string{"banks1", "banks4", "xbar", "mesh"}

// hostPackages are the packages the traced run's CPU profile is rolled
// up into; everything else lands in "other".
var hostPackages = []string{"sim", "tcc", "cache", "directory", "bus", "runtime", "other"}

// selfLayers are the layers whose span self time the traced run reports.
var selfLayers = []string{"workload", "tracestore", "tcc", "core", "power", "experiments", "energy"}

// perLayer lists the metrics of a traced run (--trace 1).
func perLayer() []metricSpec {
	m := []metricSpec{
		{"workload.gen_ms", "ms"},
		{"workload.ops_per_trace", "count"},
		{"tracestore.load_us", "us"},
		{"tracestore.publish_ms", "ms"},
		{"tcc.build_ms", "ms"},
		{"tcc.reset_us", "us"},
		{"tcc.run_ms", "ms"},
		{"tcc.commits", "count"},
		{"tcc.aborts_per_commit", "ratio"},
		{"tcc.gated_share", "ratio"},
		{"sim.events_per_cell", "count"},
		{"sim.ns_per_event", "ns"},
	}
	for _, sfx := range append([]string{""}, busShapes...) {
		if sfx != "" {
			sfx = "." + sfx
		}
		m = append(m,
			metricSpec{"bus.link_sends" + sfx, "count"},
			metricSpec{"bus.wait_cycles_per_link_send" + sfx, "cycles"},
			metricSpec{"bus.busy_share" + sfx, "ratio"},
			metricSpec{"bus.sends_per_round" + sfx, "ratio"},
		)
	}
	m = append(m,
		metricSpec{"cache.hit_ratio", "ratio"},
		metricSpec{"cache.overflows", "count"},
		metricSpec{"directory.reads", "count"},
		metricSpec{"directory.lines_committed", "count"},
		metricSpec{"directory.gatings", "count"},
		metricSpec{"core.pair_ms", "ms"},
		metricSpec{"power.compare_us", "us"},
		metricSpec{"energy.reprice_us_per_cell", "us"},
		metricSpec{"reprice_cells_per_s", "cells/s"},
		metricSpec{"experiments.session_overhead_pct", "%"},
		metricSpec{"experiments.csv_ms", "ms"},
		metricSpec{"experiments.journal_append_us", "us"},
		metricSpec{"experiments.journal_read_ms", "ms"},
		metricSpec{"dist.overhead_s", "s"},
		metricSpec{"dist.leases", "count"},
		metricSpec{"dist.retries", "count"},
		metricSpec{"dist.renewals", "count"},
		metricSpec{"host.allocs_per_cell", "count"},
		metricSpec{"host.alloc_mb_per_cell", "MiB"},
	)
	for _, p := range hostPackages {
		m = append(m, metricSpec{"host_pct." + p, "%"})
	}
	for _, l := range selfLayers {
		m = append(m, metricSpec{"self_ms." + l, "ms"})
	}
	m = append(m,
		metricSpec{"speedup_err_pp", "pp"},
		metricSpec{"energy_err_pp", "pp"},
		metricSpec{"power_err_pp", "pp"},
		metricSpec{"trace.overhead_s", "s"},
		metricSpec{"trace.spans", "count"},
	)
	return m
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string // directory for scratch stores, journals and span files
	sizes    sizes
}

// sizes are the workloads' scale factors (transaction-count multipliers).
type sizes struct {
	paper, wide, fleet float64
}

// defaultSizes are the benchmark's sizes; the smoke test shrinks them.
var defaultSizes = sizes{paper: 1, wide: 0.25, fleet: 0.05}

// minReps is the fewest timed batches a run makes, whatever --seconds
// says, so every timing has quartiles.
const minReps = 3

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "paper", "workload: paper, wide or fleet")
	flag.Uint64Var(&o.seed, "seed", 42, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 35, "seconds of timed batches")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench-out", "directory for scratch files and span files")
	flag.Parse()
	o.trace = trace != 0
	o.sizes = defaultSizes
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one invocation, writing the human-readable report to w,
// and returns the result line.
func run(o options, w io.Writer) (*result, error) {
	b, err := newBench(o)
	if err != nil {
		return nil, err
	}
	defer b.cleanup()
	fmt.Fprintf(w, "perfbench: workload=%s seed=%d scale=%g trace=%t nproc=%d GOMAXPROCS=%d go=%s\n",
		o.workload, o.seed, b.scale, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	if err := b.prepare(); err != nil {
		return nil, err
	}
	if o.trace {
		return b.traced(w)
	}
	return b.timed(w, time.Duration(o.seconds*float64(time.Second)))
}

// report prints one metric line of the human-readable report; samples,
// when given, add the quartiles and sample count.
func report(w io.Writer, name, unit string, v float64, samples []float64) {
	if len(samples) > 0 {
		q1, _, q3 := quartiles(samples)
		fmt.Fprintf(w, "  %-36s %14.6g %-8s [q1 %.6g, q3 %.6g] n=%d\n", name, v, unit, q1, q3, len(samples))
		return
	}
	fmt.Fprintf(w, "  %-36s %14.6g %s\n", name, v, unit)
}

// quartiles returns the first quartile, median and third quartile of xs
// by the exclusive method (Python's statistics.quantiles default).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), median(s), q(3)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
