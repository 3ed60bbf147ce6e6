package experiments

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/stamp"
	"repro/internal/stats"
)

// goodRecord is a hand-built record of a 2-processor cell whose every
// residency row sums to its run's cycles.
func goodRecord() CellRecord {
	return CellRecord{
		Cell: Cell{App: stamp.Intruder, Processors: 2, Seed: 1},
		Ungated: RunRecord{
			Cycles:    100,
			Residency: [][stats.NumStates]sim.Time{{60, 20, 20, 0}, {100, 0, 0, 0}},
		},
		Gated: RunRecord{
			Cycles:    90,
			Residency: [][stats.NumStates]sim.Time{{40, 10, 10, 30}, {70, 0, 0, 20}},
			Gated:     true,
		},
	}
}

// badRecords crafts one record per way a residency table can lie about
// its run.
func badRecords() map[string]CellRecord {
	bad := map[string]CellRecord{}
	edit := func(name string, f func(*CellRecord)) {
		r := goodRecord()
		f(&r)
		bad[name] = r
	}
	edit("too few rows", func(r *CellRecord) { r.Gated.Residency = r.Gated.Residency[:1] })
	edit("too many rows", func(r *CellRecord) {
		r.Ungated.Residency = append(r.Ungated.Residency, [stats.NumStates]sim.Time{100, 0, 0, 0})
	})
	edit("no rows", func(r *CellRecord) { r.Ungated.Residency = nil })
	edit("negative entry", func(r *CellRecord) { r.Ungated.Residency[1] = [stats.NumStates]sim.Time{120, -20, 0, 0} })
	edit("row short of cycles", func(r *CellRecord) { r.Gated.Residency[0][stats.StateGated] = 29 })
	edit("row over cycles", func(r *CellRecord) { r.Ungated.Residency[0][stats.StateRun] = 61 })
	edit("row wrapping past cycles", func(r *CellRecord) {
		r.Ungated.Residency[1] = [stats.NumStates]sim.Time{math.MaxInt64, math.MaxInt64, 102, 0}
	})
	edit("no processors", func(r *CellRecord) {
		r.Cell.Processors = 0
		r.Ungated.Residency, r.Gated.Residency = nil, nil
	})
	return bad
}

func TestCellRecordValidate(t *testing.T) {
	if err := goodRecord().Validate(); err != nil {
		t.Fatalf("good record rejected: %v", err)
	}
	for name, rec := range badRecords() {
		if err := rec.Validate(); !errors.Is(err, ErrBadRecord) {
			t.Errorf("%s: Validate = %v, want ErrBadRecord", name, err)
		}
	}
}

// journalLines renders a journal (or checkpoint file) of the given
// records under the current header.
func journalLines(t *testing.T, fingerprint string, recs ...CellRecord) string {
	t.Helper()
	hdr, err := json.Marshal(checkpointHeader{Version: checkpointVersion, Campaign: fingerprint})
	if err != nil {
		t.Fatal(err)
	}
	lines := []string{string(hdr)}
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(line))
	}
	return strings.Join(lines, "\n") + "\n"
}

func TestReadJournalRejectsBadRecord(t *testing.T) {
	recs, err := ReadJournal(strings.NewReader(journalLines(t, "fp", goodRecord())))
	if err != nil || len(recs) != 1 {
		t.Fatalf("good journal: %d records, %v", len(recs), err)
	}
	for name, bad := range badRecords() {
		if _, err := ReadJournal(strings.NewReader(journalLines(t, "fp", goodRecord(), bad))); !errors.Is(err, ErrBadRecord) {
			t.Errorf("%s: ReadJournal = %v, want ErrBadRecord", name, err)
		}
	}
}

func TestCheckpointResumeRejectsBadRecord(t *testing.T) {
	dir := t.TempDir()
	open := func(name, content string) error {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := OpenCheckpoint(path, "fp")
		if err == nil {
			ck.Close()
		}
		return err
	}
	if err := open("good.jsonl", journalLines(t, "fp", goodRecord())); err != nil {
		t.Fatalf("good checkpoint: %v", err)
	}
	for name, bad := range badRecords() {
		err := open(strings.ReplaceAll(name, " ", "-")+".jsonl", journalLines(t, "fp", bad, goodRecord()))
		if !errors.Is(err, ErrBadRecord) {
			t.Errorf("%s: OpenCheckpoint = %v, want ErrBadRecord", name, err)
		}
	}
}
