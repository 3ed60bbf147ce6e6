package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// citedMetrics are the metric names later changes cite. Renaming one
// breaks those citations, so the names are pinned here and not only
// derived from the lists the benchmark emits.
var citedMetrics = struct{ endToEnd, report, perLayer []string }{
	endToEnd: []string{"wall_s", "cells_per_s", "setup_s", "peak_heap_mb"},
	report:   []string{"fail_ratio", "speedup_err_pp", "energy_err_pp", "power_err_pp"},
	perLayer: []string{
		"workload.gen_ms", "workload.ops_per_trace",
		"tracestore.load_us", "tracestore.publish_ms",
		"tcc.build_ms", "tcc.reset_us", "tcc.run_ms", "tcc.commits", "tcc.aborts_per_commit", "tcc.gated_share",
		"sim.events_per_cell", "sim.ns_per_event",
		"bus.link_sends", "bus.wait_cycles_per_link_send", "bus.busy_share", "bus.sends_per_round",
		"bus.link_sends.mesh", "bus.link_sends.xbar", "bus.link_sends.banks1", "bus.link_sends.banks4",
		"bus.wait_cycles_per_link_send.mesh", "bus.wait_cycles_per_link_send.xbar",
		"cache.hit_ratio", "cache.overflows",
		"directory.reads", "directory.lines_committed", "directory.gatings",
		"core.pair_ms", "power.compare_us", "energy.reprice_us_per_cell", "reprice_cells_per_s",
		"experiments.session_overhead_pct", "experiments.csv_ms",
		"experiments.journal_append_us", "experiments.journal_read_ms",
		"dist.overhead_s", "dist.leases", "dist.retries", "dist.renewals",
		"host.allocs_per_cell", "host.alloc_mb_per_cell",
		"host_pct.sim", "host_pct.tcc", "host_pct.cache", "host_pct.directory", "host_pct.bus", "host_pct.runtime",
		"speedup_err_pp", "energy_err_pp", "power_err_pp",
		"trace.overhead_s",
	},
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []metricSpec `json:"end_to_end"`
	PerLayer  []metricSpec `json:"per_layer"`
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that each emits exactly the metrics BENCHMARK.json lists, with
// their units, that its outputs pass every check, and that the report
// carries the conditions and the report-only figures.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	sameSpecs(t, "end_to_end", spec.EndToEnd, endToEnd)
	sameSpecs(t, "per_layer", spec.PerLayer, perLayer())
	listed := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		listed[m.Name] = true
	}
	for _, n := range append(append([]string(nil), citedMetrics.endToEnd...), citedMetrics.perLayer...) {
		if !listed[n] {
			t.Errorf("metric %s missing from BENCHMARK.json", n)
		}
	}

	tiny := sizes{paper: 0.02, wide: 0.02, fleet: 0.02}
	for _, wl := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			res, err := run(options{workload: wl.Name, seed: 42, trace: traced, out: t.TempDir(), sizes: tiny}, &out)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", wl.Name, traced, err)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: metric %s not emitted", wl.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%t: metric %s unit %q, want %q", wl.Name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%t: metric %s = %v", wl.Name, traced, m.Name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.Name, m.Name, got.Value)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d\n%s",
					wl.Name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			report := out.String()
			for _, s := range []string{"seed=42", "scale=0.02", "nproc=", "GOMAXPROCS=", "go="} {
				if !strings.Contains(report, s) {
					t.Errorf("%s trace=%t: report lacks condition %q", wl.Name, traced, s)
				}
			}
			if !traced {
				for _, n := range append([]string{"repeats="}, citedMetrics.report...) {
					if !strings.Contains(report, n) {
						t.Errorf("%s: report lacks %s", wl.Name, n)
					}
				}
				continue
			}
			var pct float64
			for _, p := range hostPackages {
				pct += res.Metrics["host_pct."+p].Value
			}
			if pct != 0 && math.Abs(pct-100) > 1e-6 {
				t.Errorf("%s: host_pct shares sum to %v, want 100", wl.Name, pct)
			}
			if res.Metrics["trace.spans"].Value == 0 || res.Metrics["sim.events_per_cell"].Value == 0 {
				t.Errorf("%s: traced run recorded no spans or no events", wl.Name)
			}
		}
	}
}

func sameSpecs(t *testing.T, key string, json, code []metricSpec) {
	t.Helper()
	if len(json) != len(code) {
		t.Errorf("BENCHMARK.json %s lists %d metrics, the benchmark emits %d", key, len(json), len(code))
		return
	}
	for i := range code {
		if json[i] != code[i] {
			t.Errorf("BENCHMARK.json %s[%d] = %+v, the benchmark emits %+v", key, i, json[i], code[i])
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the spread the benchmark is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}
