package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/stamp"
)

// TestShapeInterleaveReuseByteIdentical pins the shape-change fallback of
// the per-worker System cache: a single worker streaming cells that
// interleave 8p/32p/128p machines, banks 0/1/4 interconnects and
// bus/mesh/xbar topologies must transparently rebuild its cached System
// on every shape change — never corrupt it — and produce campaign CSV
// bytes identical to a session running every cell on a fresh System.
// Topology rides in Machine, so the struct-equality shape check catches a
// bus→mesh→bus interleave with no extra plumbing; this test is what pins
// that.
//
// Run memo: every cell has a distinct run key (the closing cell differs
// from the first by seed), so no run is shared and both sessions simulate
// all 22 runs on their System caches.
func TestShapeInterleaveReuseByteIdentical(t *testing.T) {
	shapes := []struct {
		procs, banks int
		topo         string
		seed         uint64
	}{
		{8, 0, "", 7}, {32, 4, "", 7}, {8, 1, "", 7}, {8, 0, "mesh", 7}, {128, 4, "", 7},
		{32, 1, "", 7}, {8, 0, "xbar", 7}, {8, 4, "", 7}, {128, 1, "", 7}, {32, 0, "", 7},
		{8, 0, "", 8}, // back to the first shape: the cache must have survived the churn
	}
	cells := make([]Cell, len(shapes))
	for i, sh := range shapes {
		cells[i] = Cell{
			Index: i, ID: fmt.Sprintf("shape%d", i),
			App: stamp.Intruder, Processors: sh.procs, Banks: sh.banks,
			Topology: sh.topo, Seed: sh.seed,
		}
	}
	runCSV := func(noReuse bool) string {
		o := Options{Seed: 7, Scale: 0.02, Workers: 1, NoSystemReuse: noReuse}
		s := NewSession(o)
		defer s.Close()
		outs, err := s.RunCells(context.Background(), cells)
		if err != nil {
			t.Fatalf("noReuse=%v: %v", noReuse, err)
		}
		if got, want := s.Simulated(), uint64(2*len(cells)); got != want {
			t.Fatalf("noReuse=%v: simulated %d runs, want %d (a run was shared)", noReuse, got, want)
		}
		camp := &Campaign{Options: o, Cells: cells, Outcomes: outs}
		var buf strings.Builder
		if err := camp.WriteCSV(&buf); err != nil {
			t.Fatalf("noReuse=%v CSV: %v", noReuse, err)
		}
		return buf.String()
	}
	reused, fresh := runCSV(false), runCSV(true)
	if reused == fresh {
		return
	}
	r, f := strings.Split(reused, "\n"), strings.Split(fresh, "\n")
	if len(r) != len(f) {
		t.Fatalf("row counts diverge: %d (reused) vs %d (fresh)", len(r), len(f))
	}
	for i := range r {
		if r[i] != f[i] {
			t.Fatalf("first diverging row %d (%s):\nreused: %s\nfresh:  %s",
				i, cells[i-1].Label(), r[i], f[i])
		}
	}
}
