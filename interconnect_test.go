// Differential timing-equivalence harness for the Banks axis. The banked
// bus with one bank must be cycle-identical to the single
// split-transaction bus — not approximately, but byte-for-byte across the
// whole E2E done-set. Both build the same single link and pump of
// bus.Net, so this golden checks the plumbing that maps Banks=0 and
// Banks=1 onto that link (config, cell, checkpoint key, CSV), localized
// to the first diverging protocol event's cycle. It cannot see a change
// to the shared link timing itself; TestDoneSetCSVDigest pins that.
package clockgate

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// doneSetCells builds one run-cell per done case of the scenario matrix,
// every cell forced onto the given interconnect shape (banks = 0 is the
// single bus, 1 the one-banked model). Topology is cleared: this golden
// differentials the two bus models, and the banked bus does not compose
// with the topology block's point-to-point fabrics (those cells still
// participate, re-homed onto the bus like every other machine axis).
func doneSetCells(seed uint64, banks int) []Cell {
	var cells []Cell
	for _, s := range ScenarioMatrix() {
		if !s.Done() {
			continue
		}
		c := s.Cell(len(cells), seed)
		c.Banks = banks
		c.Topology = ""
		cells = append(cells, c)
	}
	return cells
}

// stripBanksColumn removes the trailing banks column from every CSV row:
// it differs between the two campaigns by construction (0 vs 1), while
// every other byte must match.
func stripBanksColumn(csv string) string {
	lines := strings.Split(strings.TrimSuffix(csv, "\n"), "\n")
	for i, line := range lines {
		cut := strings.LastIndexByte(line, ',')
		if cut >= 0 {
			lines[i] = line[:cut]
		}
	}
	return strings.Join(lines, "\n")
}

// TestBankedOneBankGoldenOverDoneSet runs every e2e done case twice — on
// the single bus and on the banked bus with Banks=1 — and requires the
// two campaign CSVs to be byte-identical outside the banks column. On a
// divergence it re-runs the first diverging cell with protocol event
// recorders on both engines and reports the first cycle at which the two
// interconnects disagree.
func TestBankedOneBankGoldenOverDoneSet(t *testing.T) {
	opts := DefaultCampaignOptions()
	opts.Scale = e2eScale
	opts.Workers = runtime.GOMAXPROCS(0)

	// Run memo: one Session, but the sides differ in config.Config (Machine.Banks), so no run is shared.
	session := NewSession(opts)
	defer session.Close()

	runCSV := func(banks int) (string, []Cell) {
		cells := doneSetCells(opts.Seed, banks)
		outs, err := session.RunCells(context.Background(), cells)
		if err != nil {
			t.Fatalf("banks=%d campaign: %v", banks, err)
		}
		campaign := &Campaign{Options: opts, Cells: cells, Outcomes: outs}
		var buf strings.Builder
		if err := campaign.WriteCSV(&buf); err != nil {
			t.Fatalf("banks=%d CSV: %v", banks, err)
		}
		return buf.String(), cells
	}
	singleCSV, cells := runCSV(0)
	bankedCSV, _ := runCSV(1)

	single := strings.Split(stripBanksColumn(singleCSV), "\n")
	banked := strings.Split(stripBanksColumn(bankedCSV), "\n")
	if len(single) != len(banked) {
		t.Fatalf("row counts diverge: %d vs %d", len(single), len(banked))
	}
	for i := range single {
		if single[i] == banked[i] {
			continue
		}
		// Row 0 is the header; data row i belongs to cells[i-1].
		cell := cells[i-1]
		t.Errorf("first diverging done-set row %d (%s %s):\n  single bus: %s\n  banked(1):  %s\n  first diverging cycle: %s",
			i, cell.ID, cell.Label(), single[i], banked[i], firstDivergingCycle(t, cell))
		break
	}
}

// firstDivergingCycle re-executes one cell on both interconnect shapes
// with protocol event recorders attached and returns a description of the
// first event where the two engines' histories part ways — the debugging
// entry point for a golden failure.
func firstDivergingCycle(t *testing.T, cell Cell) string {
	t.Helper()
	record := func(banks int, gated bool) []Event {
		tr, err := GenerateTraceScaled(cell.App, cell.Processors, cell.Seed, e2eScale)
		if err != nil {
			t.Fatalf("trace for %s: %v", cell.Label(), err)
		}
		rec := NewEventRecorder()
		_, err = RunSingleWithEvents(Experiment{
			Trace:      tr,
			Processors: cell.Processors,
			W0:         int64(cell.W0),
			Seed:       cell.Seed,
			Configure:  func(c *Config) { c.Machine.Banks = banks },
		}, gated, rec)
		if err != nil {
			t.Fatalf("recorded run for %s: %v", cell.Label(), err)
		}
		return rec.Events()
	}
	for _, gated := range []bool{false, true} {
		a, b := record(0, gated), record(1, gated)
		n := min(len(a), len(b))
		for i := 0; i < n; i++ {
			if a[i] != b[i] {
				return fmt.Sprintf("cycle %d (gated=%v event %d: single %+v, banked %+v)",
					min(a[i].At, b[i].At), gated, i, a[i], b[i])
			}
		}
		if len(a) != len(b) {
			return fmt.Sprintf("gated=%v event counts diverge after cycle %d (%d vs %d events)",
				gated, a[n-1].At, len(a), len(b))
		}
	}
	return "no protocol-event divergence (timing drift outside recorded events)"
}

// TestBankedCellSharesWorkloadWithSingleBus pins the layer the golden
// rides on: a cell's workload trace is a function of the workload axes
// only, so the differential comparison above really does execute the
// identical trace on both interconnects (one generation, served twice
// from the session trace cache — asserted directly in
// internal/experiments' TestTraceCacheKeyAudit).
func TestBankedCellSharesWorkloadWithSingleBus(t *testing.T) {
	a, err := GenerateTraceScaled(Intruder, 8, 42, e2eScale)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTraceScaled(Intruder, 8, 42, e2eScale)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumThreads() != b.NumThreads() {
		t.Fatalf("trace generation not deterministic: %d vs %d threads", a.NumThreads(), b.NumThreads())
	}
}
