// Reprice golden: the energy subsystem's correctness contract. Re-pricing
// a checkpoint/fleet journal under a technology point T must be
// byte-identical to a fresh simulated campaign under T across the whole
// E2E done-set — energy is a pure function of the recorded integer
// residency totals and T's power model, so the journal path may never
// drift from the simulated one by so much as a formatting bit. This is
// the analogue of the Banks=1 differential golden for the energy axis:
// it is what lets `experiments -reprice` claim a fresh campaign's
// results as its own without simulating anything.
package clockgate

import (
	"context"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// repriceTech is the non-default technology point the golden re-prices
// against. It must differ from the default in every parameter class the
// model derivation consumes (leakage and the cacti-priced cache factor),
// so a pricing path that ignores any of them fails the golden.
const repriceTech = "t45"

// doneSetCellsTech builds one run-cell per done case of the scenario
// matrix, every cell forced onto the given technology point — the energy
// analogue of doneSetCells forcing an interconnect shape. Forcing is
// essential: the done set includes energy-block cases that pin their own
// tech, and both campaigns of the golden must price uniformly.
func doneSetCellsTech(seed uint64, tech string) []Cell {
	cells := doneSetCells(seed, 0)
	for i := range cells {
		cells[i].Tech = tech
	}
	return cells
}

// TestRepriceGoldenOverDoneSet simulates the done-set once under the
// default technology point with a checkpoint journal attached, re-prices
// that journal under repriceTech without any simulation, and requires
// the resulting CSV to be byte-identical to a freshly simulated
// done-set campaign under repriceTech. On a divergence it reports the
// first diverging row.
func TestRepriceGoldenOverDoneSet(t *testing.T) {
	opts := DefaultCampaignOptions()
	opts.Scale = e2eScale
	opts.Workers = runtime.GOMAXPROCS(0)

	// Run memo: each campaign runs on its own Session, so no run is shared between them.
	// Two sessions: only the default-tech campaign journals its cells —
	// attaching the checkpoint to the fresh-tech campaign too would append
	// its records to the same journal and the reprice would see both.
	session := NewSession(opts)
	defer session.Close()
	fresh := NewSession(opts)
	defer fresh.Close()

	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := session.SetCheckpoint(journal); err != nil {
		t.Fatal(err)
	}

	runCSV := func(s *Session, cells []Cell) string {
		outs, err := s.RunCells(context.Background(), cells)
		if err != nil {
			t.Fatalf("campaign: %v", err)
		}
		campaign := &Campaign{Options: opts, Cells: cells, Outcomes: outs}
		var buf strings.Builder
		if err := campaign.WriteCSV(&buf); err != nil {
			t.Fatalf("CSV: %v", err)
		}
		return buf.String()
	}

	// The journal campaign simulates under the default tech; the fresh
	// campaign simulates under repriceTech. The trace cache and the
	// simulator never see the tech axis, so the second campaign re-prices
	// identical timings — which is exactly the property the journal path
	// exploits, here proven end to end rather than assumed.
	runCSV(session, doneSetCellsTech(opts.Seed, ""))
	freshCSV := runCSV(fresh, doneSetCellsTech(opts.Seed, repriceTech))

	start := time.Now()
	repriced, err := Reprice(journal, repriceTech)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("reprice: %v", err)
	}
	var buf strings.Builder
	if err := repriced.WriteCSV(&buf); err != nil {
		t.Fatalf("repriced CSV: %v", err)
	}
	repricedCSV := buf.String()

	want := strings.Split(freshCSV, "\n")
	got := strings.Split(repricedCSV, "\n")
	if len(want) != len(got) {
		t.Fatalf("row counts diverge: fresh %d vs repriced %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("first diverging row %d:\n  fresh:    %s\n  repriced: %s", i, want[i], got[i])
		}
	}

	// The reprice path must be checkpoint arithmetic, not simulation: the
	// whole done-set re-prices orders of magnitude faster than it
	// simulates. The bound is generous (the simulated campaigns above take
	// seconds); its job is to catch an accidental re-simulation, which
	// would blow past it by ~100x.
	if n := len(repriced.Outcomes); elapsed > 2*time.Second {
		t.Errorf("re-pricing %d cells took %v — the journal path must not simulate", n, elapsed)
	}
}

// TestRepriceMultiTechBlocks pins the tech-major output shape of a
// multi-tech reprice: every journal cell under techs[0] first, then
// techs[1], with each block byte-identical to a single-tech reprice.
func TestRepriceMultiTechBlocks(t *testing.T) {
	opts := DefaultCampaignOptions()
	opts.Scale = 0.02
	opts.Apps = []App{Intruder}
	opts.Processors = []int{4, 8}
	opts.Workers = 2

	session := NewSession(opts)
	defer session.Close()
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := session.SetCheckpoint(journal); err != nil {
		t.Fatal(err)
	}
	if _, err := session.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	multi, err := Reprice(journal, "t65-srpg50", "t32")
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Outcomes) != 4 {
		t.Fatalf("2 cells x 2 techs should give 4 rows, got %d", len(multi.Outcomes))
	}
	for i, c := range multi.Cells {
		want := "t65-srpg50"
		if i >= 2 {
			want = "t32"
		}
		if c.Tech != want || c.Index != i {
			t.Errorf("row %d: tech %q index %d, want %q index %d", i, c.Tech, c.Index, want, i)
		}
	}
	single, err := Reprice(journal, "t32")
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range single.Outcomes {
		if o.Comparison != multi.Outcomes[2+i].Comparison {
			t.Errorf("t32 block row %d differs between single- and multi-tech reprice", i)
		}
	}
}
