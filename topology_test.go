// Differential timing-equivalence harness for the point-to-point
// interconnect topologies. A 1×1 mesh and a 1-node ring collapse every
// route onto a single link — tile 0's local port — which serializes
// traffic exactly like the paper's single split-transaction bus. The
// campaign CSVs of the three machines must therefore be byte-identical
// across the whole E2E done-set, outside the topology column that names
// them. The fabrics and the bus share bus.Net's link code, so this
// golden checks the degenerate route — every message, vendor sideband
// included, onto local port 0 — and the topology plumbing, localized to
// the first diverging done-set row. A change to the shared link timing
// moves both sides alike; TestDoneSetCSVDigest pins that.
package clockgate

import (
	"context"
	"runtime"
	"strings"
	"testing"
)

// doneSetTopologyCells builds one run-cell per done case of the scenario
// matrix, every cell forced onto the given interconnect topology with
// banking off ("" is the single bus).
func doneSetTopologyCells(seed uint64, topology string) []Cell {
	var cells []Cell
	for _, s := range ScenarioMatrix() {
		if !s.Done() {
			continue
		}
		c := s.Cell(len(cells), seed)
		c.Banks = 0
		c.Topology = topology
		cells = append(cells, c)
	}
	return cells
}

// stripTrailingColumns removes the last n CSV columns from every row.
// The topology golden strips two: the topology column differs between
// the campaigns by construction ("bus" vs the degenerate fabric spec),
// and banks rides behind it as the last column.
func stripTrailingColumns(csv string, n int) string {
	lines := strings.Split(strings.TrimSuffix(csv, "\n"), "\n")
	for i, line := range lines {
		for j := 0; j < n; j++ {
			if cut := strings.LastIndexByte(line, ','); cut >= 0 {
				line = line[:cut]
			}
		}
		lines[i] = line
	}
	return strings.Join(lines, "\n")
}

// TestTopologyDegenerateGoldenOverDoneSet runs every e2e done case three
// times — on the single bus, on a 1×1 mesh and on a 1-node ring — and
// requires the three campaign CSVs to be byte-identical outside the
// trailing topology/banks columns. The per-cell workload is generated
// once and shared (the trace cache ignores the machine axes), so the
// comparison is a pure interconnect differential.
func TestTopologyDegenerateGoldenOverDoneSet(t *testing.T) {
	opts := DefaultCampaignOptions()
	opts.Scale = e2eScale
	opts.Workers = runtime.GOMAXPROCS(0)

	// Run memo: one Session, but the sides differ in config.Config (Machine.Topology), so no run is shared.
	session := NewSession(opts)
	defer session.Close()

	runCSV := func(topology string) (string, []Cell) {
		cells := doneSetTopologyCells(opts.Seed, topology)
		outs, err := session.RunCells(context.Background(), cells)
		if err != nil {
			t.Fatalf("topology=%q campaign: %v", topology, err)
		}
		campaign := &Campaign{Options: opts, Cells: cells, Outcomes: outs}
		var buf strings.Builder
		if err := campaign.WriteCSV(&buf); err != nil {
			t.Fatalf("topology=%q CSV: %v", topology, err)
		}
		return buf.String(), cells
	}
	busCSV, cells := runCSV("")
	bus := strings.Split(stripTrailingColumns(busCSV, 2), "\n")
	for _, degenerate := range []string{"mesh:1x1", "ring:1"} {
		fabricCSV, _ := runCSV(degenerate)
		fabric := strings.Split(stripTrailingColumns(fabricCSV, 2), "\n")
		if len(bus) != len(fabric) {
			t.Fatalf("%s: row counts diverge: %d vs %d", degenerate, len(bus), len(fabric))
		}
		for i := range bus {
			if bus[i] == fabric[i] {
				continue
			}
			// Row 0 is the header; data row i belongs to cells[i-1].
			cell := cells[i-1]
			t.Errorf("%s: first diverging done-set row %d (%s %s):\n  bus:    %s\n  fabric: %s",
				degenerate, i, cell.ID, cell.Label(), bus[i], fabric[i])
			break
		}
	}
}

// TestTopologyDoneCasesRun smoke-executes one representative done case of
// the topology matrix block per fabric kind at reduced scale: the
// non-degenerate machines must complete the paired run with finite
// metrics and per-link stats the CSV can render. (Full done-set coverage
// of the block rides in the E2E harness; this pins that each fabric kind
// at least executes before that suite runs.)
func TestTopologyDoneCasesRun(t *testing.T) {
	opts := DefaultCampaignOptions()
	opts.Scale = 0.01
	session := NewSession(opts)
	defer session.Close()

	var cells []Cell
	for _, topo := range MatrixTopologies() {
		cells = append(cells, Cell{
			Index: len(cells), App: Intruder, Processors: 64,
			Topology: topo, Seed: opts.Seed,
		})
	}
	outs, err := session.RunCells(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		if out.Gated.Cycles <= 0 || out.Ungated.Cycles <= 0 {
			t.Errorf("%s: non-positive cycle count", cells[i].Label())
		}
		if out.Gated.BusStats.Messages == 0 {
			t.Errorf("%s: fabric carried no messages", cells[i].Label())
		}
		if len(out.Gated.BankStats) < 2 {
			t.Errorf("%s: %d per-link stat entries, want one per link/port",
				cells[i].Label(), len(out.Gated.BankStats))
		}
	}
	campaign := &Campaign{Options: opts, Cells: cells, Outcomes: outs}
	var buf strings.Builder
	if err := campaign.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	for _, topo := range MatrixTopologies() {
		if !strings.Contains(buf.String(), ","+topo) {
			t.Errorf("CSV lacks topology column value %q", topo)
		}
	}
}
