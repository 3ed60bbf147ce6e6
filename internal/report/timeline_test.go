package report

import (
	"strings"
	"testing"

	"repro/internal/stats"
)

func timelineLedger() *stats.Ledger {
	l := stats.NewLedger(2)
	l.Transition(0, stats.StateMiss, 25)
	l.Transition(0, stats.StateRun, 50)
	l.Transition(1, stats.StateGated, 50)
	l.Close(100)
	return l
}

func TestTimelineRender(t *testing.T) {
	out := Timeline{Ledger: timelineLedger(), Width: 20}.Render()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // header + 2 procs
		t.Fatalf("timeline lines:\n%s", out)
	}
	if !strings.Contains(lines[1], "m") {
		t.Fatalf("proc 0 row missing miss glyph:\n%s", out)
	}
	if !strings.Contains(lines[2], ".") {
		t.Fatalf("proc 1 row missing gated glyph:\n%s", out)
	}
	// Proc 1 is run for the first half, gated for the second.
	row := lines[2][strings.Index(lines[2], "|")+1:]
	if row[0] != '#' || row[18] != '.' {
		t.Fatalf("proc 1 glyph placement wrong: %q", row)
	}
}

func TestTimelineWindow(t *testing.T) {
	out := Timeline{Ledger: timelineLedger(), Width: 10, From: 50, To: 100}.Render()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	row1 := lines[2]
	if strings.Contains(row1, "#") {
		t.Fatalf("windowed row should be fully gated:\n%s", out)
	}
}

func TestTimelineDegenerateInputs(t *testing.T) {
	if out := (Timeline{}).Render(); !strings.Contains(out, "no closed ledger") {
		t.Fatalf("nil ledger output %q", out)
	}
	l := stats.NewLedger(1)
	l.Close(10)
	if out := (Timeline{Ledger: l, From: 5, To: 5}).Render(); !strings.Contains(out, "empty window") {
		t.Fatalf("empty window output %q", out)
	}
	totals := stats.NewTotalsLedger(1)
	totals.Close(10)
	if out := (Timeline{Ledger: totals}).Render(); !strings.Contains(out, "totals only") {
		t.Fatalf("totals-only ledger output %q", out)
	}
}

func TestTimelineDefaultWidth(t *testing.T) {
	out := Timeline{Ledger: timelineLedger()}.Render()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	body := lines[1][strings.Index(lines[1], "|")+1 : strings.LastIndex(lines[1], "|")]
	if len(body) != 100 {
		t.Fatalf("default width %d, want 100", len(body))
	}
}
