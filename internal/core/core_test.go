package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stamp"
	"repro/internal/stats"
	"repro/internal/workload"
)

// quickSpec is a small high-conflict workload for fast paired runs.
func quickSpec() workload.Spec {
	return workload.Spec{
		Name: "quick", TotalTxs: 64, MeanTxOps: 8, TxOpsJitter: 0.4,
		WriteFrac: 0.5, HotLines: 8, HotFrac: 0.7, ZipfSkew: 1.0,
		PrivateLines: 64, ComputeMean: 3, InterTxMean: 6, TxTypes: 2,
	}
}

func quickTrace(t *testing.T, procs int) *workload.Trace {
	t.Helper()
	qs := quickSpec()
	tr, err := qs.Generate(procs, 17)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRunPairProducesBothResults(t *testing.T) {
	out, err := RunPair(RunSpec{Trace: quickTrace(t, 4), Processors: 4, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if out.Ungated == nil || out.Gated == nil {
		t.Fatal("missing run results")
	}
	if out.Ungated.Gated || !out.Gated.Gated {
		t.Fatal("gated flags wrong")
	}
	c := out.Comparison
	if c.N1 != out.Ungated.Cycles || c.N2 != out.Gated.Cycles {
		t.Fatal("comparison cycles do not match runs")
	}
	if math.IsNaN(c.EnergyRatio) || c.EnergyRatio <= 0 {
		t.Fatalf("energy ratio %f", c.EnergyRatio)
	}
}

func TestRunPairUsesSameTrace(t *testing.T) {
	out, err := RunPair(RunSpec{Trace: quickTrace(t, 2), Processors: 2, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	// Identical work: both runs commit the same transaction count.
	if out.Ungated.Counters.Commits != out.Gated.Counters.Commits {
		t.Fatalf("commit counts differ: %d vs %d",
			out.Ungated.Counters.Commits, out.Gated.Counters.Commits)
	}
}

func TestRunPairFromPreset(t *testing.T) {
	// Preset path (no explicit trace): shrink the workload via Configure
	// being unavailable for specs — use a tiny preset run at 4 procs.
	out, err := RunPair(RunSpec{App: stamp.KMeans, Processors: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Ungated.TraceName != string(stamp.KMeans) {
		t.Fatalf("trace name %q", out.Ungated.TraceName)
	}
}

func TestRunOneRespectsGatedFlag(t *testing.T) {
	tr := quickTrace(t, 2)
	ug, err := RunOne(RunSpec{Trace: tr, Processors: 2, Seed: 17}, false)
	if err != nil {
		t.Fatal(err)
	}
	g, err := RunOne(RunSpec{Trace: tr, Processors: 2, Seed: 17}, true)
	if err != nil {
		t.Fatal(err)
	}
	if ug.Gated || !g.Gated {
		t.Fatal("gated flag not respected")
	}
}

func TestConfigureHookApplies(t *testing.T) {
	tr := quickTrace(t, 2)
	called := 0
	_, err := RunPair(RunSpec{
		Trace: tr, Processors: 2, Seed: 17,
		Configure: func(c *config.Config) {
			called++
			c.Machine.MemoryCycles = 50
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if called != 2 {
		t.Fatalf("Configure called %d times, want once per run", called)
	}
}

func TestW0Propagates(t *testing.T) {
	tr := quickTrace(t, 4)
	a, err := RunPair(RunSpec{Trace: tr, Processors: 4, Seed: 17, W0: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPair(RunSpec{Trace: tr, Processors: 4, Seed: 17, W0: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Different W0 must change the gated run (ungated identical).
	if a.Ungated.Cycles != b.Ungated.Cycles {
		t.Fatal("ungated runs differ across W0")
	}
	if a.Gated.Cycles == b.Gated.Cycles &&
		a.Gated.Counters.Renewals == b.Gated.Counters.Renewals {
		t.Fatal("W0 had no effect on the gated run")
	}
}

func TestCustomPowerModel(t *testing.T) {
	tr := quickTrace(t, 2)
	deflt, err := RunPair(RunSpec{Trace: tr, Processors: 2, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	srpg, err := RunPair(RunSpec{Trace: tr, Processors: 2, Seed: 17,
		Model: power.Default().WithSRPG(0.1)})
	if err != nil {
		t.Fatal(err)
	}
	// Same runs, cheaper gated state: energy ratio must not decrease.
	if srpg.Comparison.EnergyRatio < deflt.Comparison.EnergyRatio-1e-9 {
		t.Fatalf("SRPG model lowered the energy ratio: %f vs %f",
			srpg.Comparison.EnergyRatio, deflt.Comparison.EnergyRatio)
	}
}

func TestUnknownPresetFails(t *testing.T) {
	if _, err := RunPair(RunSpec{App: stamp.App("nope"), Processors: 2, Seed: 1}); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

// TestLedgerTotalsMatchTimeline pins the two ledger kinds to each other:
// a single run records the state timeline, a paired run keeps per-state
// totals only, and for the same spec the single run's totals equal both
// its own per-processor segment sums and the paired run's totals — so the
// §IV comparison priced from either is bit-identical.
func TestLedgerTotalsMatchTimeline(t *testing.T) {
	shapes := map[string]func(*config.Config){
		"bus":     nil,
		"banks=4": func(c *config.Config) { c.Machine.Banks = 4 },
		"mesh":    func(c *config.Config) { c.Machine.Topology = "mesh" },
	}
	for name, shape := range shapes {
		rs := RunSpec{Trace: quickTrace(t, 8), Processors: 8, Seed: 17, Configure: shape}
		pair, err := RunPair(rs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var single [2]*stats.Ledger
		for i, paired := range []*stats.Ledger{pair.Ungated.Ledger, pair.Gated.Ledger} {
			res, err := RunOne(rs, i == 1)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			l := res.Ledger
			single[i] = l
			if !l.HasTimeline() || paired.HasTimeline() {
				t.Fatalf("%s gated=%v: single run timeline %v, paired run timeline %v, want true, false",
					name, i == 1, l.HasTimeline(), paired.HasTimeline())
			}
			sums := make([][stats.NumStates]sim.Time, l.Procs())
			for p := range sums {
				for _, seg := range l.Segments(p) {
					sums[p][seg.State] += seg.To - seg.From
				}
			}
			if got := l.ResidencyTotals(); !reflect.DeepEqual(got, sums) {
				t.Errorf("%s gated=%v: totals %v, segment sums %v", name, i == 1, got, sums)
			}
			if got, want := l.ResidencyTotals(), paired.ResidencyTotals(); l.End() != paired.End() || !reflect.DeepEqual(got, want) {
				t.Errorf("%s gated=%v: single run [0,%d) totals %v, paired run [0,%d) totals %v",
					name, i == 1, l.End(), got, paired.End(), want)
			}
		}
		if got := power.Compare(rs.model(), single[0], single[1]); got != pair.Comparison {
			t.Errorf("%s: comparison from single runs %+v, paired %+v", name, got, pair.Comparison)
		}
	}
}
