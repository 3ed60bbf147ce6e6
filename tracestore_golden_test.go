// Differential golden for the on-disk trace store. A campaign with
// -trace-dir provisions every workload through internal/tracestore —
// cold (generate, publish, reload nothing), then warm (every trace
// mmap-loaded from the published CGTRACE2 entries, zero generations in
// the second session) — and the contract is absolute byte-identity with
// a store-less run: the store is a cache, never an axis. This golden
// runs the whole E2E done-set all three ways and compares the campaign
// CSVs byte for byte, localized to the first diverging cell. The CI
// "Trace store golden" lane runs it race-enabled.
package clockgate

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestTraceStoreGoldenOverDoneSet runs every e2e done case without a
// store, with a cold store, and again on the now-warm store, and
// requires the three campaign CSVs to be byte-identical.
func TestTraceStoreGoldenOverDoneSet(t *testing.T) {
	dir := t.TempDir()
	// Run memo: each of the three campaigns runs on its own Session, so no run is shared between them.
	runCSV := func(traceDir, label string) ([]string, []Cell) {
		opts := DefaultCampaignOptions()
		opts.Scale = e2eScale
		opts.Workers = runtime.GOMAXPROCS(0)
		opts.TraceDir = traceDir
		session := NewSession(opts)
		defer session.Close()

		cells := doneSetCells(opts.Seed, 0)
		outs, err := session.RunCells(context.Background(), cells)
		if err != nil {
			t.Fatalf("%s campaign: %v", label, err)
		}
		campaign := &Campaign{Options: opts, Cells: cells, Outcomes: outs}
		var buf strings.Builder
		if err := campaign.WriteCSV(&buf); err != nil {
			t.Fatalf("%s CSV: %v", label, err)
		}
		return strings.Split(buf.String(), "\n"), cells
	}
	storeless, cells := runCSV("", "store-less")
	cold, _ := runCSV(dir, "cold-store")

	// The cold run must actually have published entries, or the warm run
	// below would silently exercise the generation path again.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	published := 0
	for _, de := range ents {
		if filepath.Ext(de.Name()) == ".cgt2" {
			published++
		}
	}
	if published == 0 {
		t.Fatal("cold run published no trace-store entries")
	}
	warm, _ := runCSV(dir, "warm-store")

	for name, got := range map[string][]string{"cold-store": cold, "warm-store": warm} {
		if len(got) != len(storeless) {
			t.Fatalf("%s row count diverges: %d vs %d (store-less)", name, len(got), len(storeless))
		}
		for i := range got {
			if got[i] == storeless[i] {
				continue
			}
			// Row 0 is the header; data row i belongs to cells[i-1].
			cell := cells[i-1]
			t.Errorf("%s: first diverging done-set row %d (%s %s):\nstore-less: %s\n%s: %s",
				name, i, cell.ID, cell.Label(), storeless[i], name, got[i])
			break
		}
	}
}
