// Differential golden for System reuse. Each session pool worker carries
// one simulated machine across its whole cell stream, resetting it in
// place between cells; the contract is absolute byte-identity — a reused
// System must reproduce a fresh one's cycles, counters and CSV bytes
// exactly. This golden runs the whole E2E done-set both ways and compares
// the campaign CSVs byte for byte; any state leaking across a Reset
// fails here, localized to the first diverging cell.
package clockgate

import (
	"context"
	"runtime"
	"strings"
	"testing"
)

// TestSystemReuseGoldenOverDoneSet runs every e2e done case twice — on
// per-worker reused Systems (the default) and with reuse disabled — and
// requires the two campaign CSVs to be byte-identical.
func TestSystemReuseGoldenOverDoneSet(t *testing.T) {
	// Run memo: each side runs on its own Session, so no run is shared between them.
	runCSV := func(noReuse bool) ([]string, []Cell) {
		opts := DefaultCampaignOptions()
		opts.Scale = e2eScale
		opts.Workers = runtime.GOMAXPROCS(0)
		opts.NoSystemReuse = noReuse
		session := NewSession(opts)
		defer session.Close()

		cells := doneSetCells(opts.Seed, 0)
		outs, err := session.RunCells(context.Background(), cells)
		if err != nil {
			t.Fatalf("noReuse=%v campaign: %v", noReuse, err)
		}
		campaign := &Campaign{Options: opts, Cells: cells, Outcomes: outs}
		var buf strings.Builder
		if err := campaign.WriteCSV(&buf); err != nil {
			t.Fatalf("noReuse=%v CSV: %v", noReuse, err)
		}
		return strings.Split(buf.String(), "\n"), cells
	}
	reused, cells := runCSV(false)
	fresh, _ := runCSV(true)

	if len(reused) != len(fresh) {
		t.Fatalf("row counts diverge: %d (reused) vs %d (fresh)", len(reused), len(fresh))
	}
	for i := range reused {
		if reused[i] == fresh[i] {
			continue
		}
		// Row 0 is the header; data row i belongs to cells[i-1].
		cell := cells[i-1]
		t.Errorf("first diverging done-set row %d (%s %s):\nreused: %s\nfresh:  %s",
			i, cell.ID, cell.Label(), reused[i], fresh[i])
		break
	}
}
