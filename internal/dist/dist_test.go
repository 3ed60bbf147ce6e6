// The distributed fabric's golden contract: a campaign run through a
// coordinator and N workers over loopback HTTP — including workers that
// die mid-lease and results returned twice — produces output
// byte-identical to a single-process Session.Run. These tests are the CI
// distributed smoke lane: they run race-enabled on every build.
package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/stamp"
	"repro/internal/stats"
)

// testOptions is a small two-app campaign (4 cells) at e2e scale.
func testOptions() experiments.Options {
	return experiments.Options{
		Seed:       42,
		Scale:      0.02,
		Workers:    2,
		Apps:       []stamp.App{stamp.Intruder, stamp.Genome},
		Processors: []int{4, 8},
	}
}

// singleProcessCSV is the golden: the same options run on one in-process
// session, rendered as CSV.
func singleProcessCSV(t *testing.T, opts experiments.Options) string {
	t.Helper()
	s := experiments.NewSession(opts)
	defer s.Close()
	campaign, err := s.Run(context.Background())
	if err != nil {
		t.Fatalf("single-process campaign: %v", err)
	}
	var buf strings.Builder
	if err := campaign.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func campaignCSV(t *testing.T, campaign *experiments.Campaign) string {
	t.Helper()
	var buf strings.Builder
	if err := campaign.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// runLease executes one lease's cells on the session pool and packages
// the results for the wire, the way a raw test client standing in for a
// worker returns them. Cell failures become per-cell errors.
func runLease(ctx context.Context, session *experiments.Session, leased []LeasedCell) []CellReturn {
	cells := make([]experiments.Cell, len(leased))
	for i, lc := range leased {
		cells[i] = lc.Cell
	}
	results := make([]CellReturn, 0, len(leased))
	for res := range session.StreamChan(ctx, cells) {
		ret := CellReturn{Pos: leased[res.Pos].Pos}
		switch {
		case res.Err != nil:
			ret.Err = res.Err.Error()
		default:
			ret.Record = experiments.NewCellRecord(res.Cell, res.Outcome)
		}
		results = append(results, ret)
	}
	return results
}

// startCoordinator serves the coordinator on an ephemeral loopback port
// and returns its address plus a channel carrying Serve's result.
type serveResult struct {
	campaign *experiments.Campaign
	err      error
}

func startCoordinator(t *testing.T, c *Coordinator) (string, <-chan serveResult) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan serveResult, 1)
	go func() {
		campaign, err := c.Serve(context.Background(), ln)
		ch <- serveResult{campaign, err}
	}()
	return ln.Addr().String(), ch
}

func waitServe(t *testing.T, ch <-chan serveResult) *experiments.Campaign {
	t.Helper()
	select {
	case res := <-ch:
		if res.err != nil {
			t.Fatalf("coordinator: %v", res.err)
		}
		return res.campaign
	case <-time.After(60 * time.Second):
		t.Fatal("coordinator did not finish")
		return nil
	}
}

// TestDistributedMergeByteIdentical is the fabric's headline golden: two
// workers race for leases over loopback and the merged CSV must equal
// the single-process output byte for byte.
func TestDistributedMergeByteIdentical(t *testing.T) {
	opts := testOptions()
	want := singleProcessCSV(t, opts)

	coord, err := NewCoordinator(opts, opts.Cells(), Config{
		LeaseTTL:   30 * time.Second,
		LeaseBatch: 1, // force the workers to interleave cell by cell
		RetryDelay: 20 * time.Millisecond,
		DrainGrace: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, serveCh := startCoordinator(t, coord)

	var wg sync.WaitGroup
	workerErrs := make([]error, 2)
	workerStats := make([]WorkerStats, 2)
	for i := range workerErrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			workerStats[i], workerErrs[i] = Work(context.Background(), addr,
				WorkerOptions{Name: "w", Workers: 2, MaxBatch: 1})
		}()
	}
	wg.Wait()
	for i, err := range workerErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	campaign := waitServe(t, serveCh)
	if got := campaignCSV(t, campaign); got != want {
		t.Errorf("distributed CSV diverges from single-process run:\nwant:\n%s\ngot:\n%s", want, got)
	}
	total := workerStats[0].Cells + workerStats[1].Cells
	if total != len(opts.Cells()) {
		t.Errorf("workers completed %d cells, campaign has %d", total, len(opts.Cells()))
	}
}

// TestDistributedWorkerFailure injects the fault the lease deadlines
// exist for: a worker leases cells and dies without returning them. The
// cells must be re-leased after the deadline and the merged output stay
// byte-identical.
func TestDistributedWorkerFailure(t *testing.T) {
	opts := testOptions()
	want := singleProcessCSV(t, opts)

	coord, err := NewCoordinator(opts, opts.Cells(), Config{
		LeaseTTL:   250 * time.Millisecond,
		LeaseBatch: 2,
		RetryDelay: 50 * time.Millisecond,
		DrainGrace: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, serveCh := startCoordinator(t, coord)

	// The doomed worker: takes a two-cell lease and is never heard from
	// again.
	var grant LeaseResponse
	if err := postJSON(context.Background(), http.DefaultClient,
		"http://"+addr+"/v1/lease", LeaseRequest{Worker: "doomed", Max: 2}, &grant); err != nil {
		t.Fatal(err)
	}
	if len(grant.Cells) != 2 {
		t.Fatalf("doomed worker leased %d cells, want 2", len(grant.Cells))
	}

	// A healthy worker joins and must complete the whole campaign once
	// the doomed lease expires.
	stats, err := Work(context.Background(), addr, WorkerOptions{Name: "healthy", Workers: 2})
	if err != nil {
		t.Fatalf("healthy worker: %v", err)
	}
	campaign := waitServe(t, serveCh)
	if got := campaignCSV(t, campaign); got != want {
		t.Errorf("CSV after worker failure diverges:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if stats.Cells != len(opts.Cells()) {
		t.Errorf("healthy worker ran %d cells, want all %d (re-leased included)", stats.Cells, len(opts.Cells()))
	}
	if cs := coord.Stats(); cs.Expired == 0 {
		t.Errorf("no lease expired: %+v", cs)
	}
}

// TestDistributedLeaseDedup is the dedup regression: the same cell
// returned twice — the second time from a lease that expired and whose
// cell re-ran elsewhere — is merged exactly once and the output is
// unchanged.
func TestDistributedLeaseDedup(t *testing.T) {
	opts := testOptions()
	want := singleProcessCSV(t, opts)
	cells := opts.Cells()

	coord, err := NewCoordinator(opts, cells, Config{
		LeaseTTL:   150 * time.Millisecond,
		LeaseBatch: 1,
		RetryDelay: 25 * time.Millisecond,
		DrainGrace: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, serveCh := startCoordinator(t, coord)
	ctx := context.Background()

	// Slow worker: leases one cell, computes it, but holds the result
	// past the lease deadline.
	var grant LeaseResponse
	if err := postJSON(ctx, http.DefaultClient, "http://"+addr+"/v1/lease",
		LeaseRequest{Worker: "slow", Max: 1}, &grant); err != nil {
		t.Fatal(err)
	}
	if len(grant.Cells) != 1 {
		t.Fatalf("leased %d cells, want 1", len(grant.Cells))
	}
	session := experiments.NewSession(opts)
	defer session.Close()
	late := runLease(ctx, session, grant.Cells)
	time.Sleep(300 * time.Millisecond) // lease expires; cell re-leasable

	// Healthy worker completes the campaign, re-running the expired
	// cell.
	if _, err := Work(ctx, addr, WorkerOptions{Name: "healthy", Workers: 2}); err != nil {
		t.Fatalf("healthy worker: %v", err)
	}

	// The slow worker's return lands after the fact: accepted as a
	// duplicate, merged zero times.
	var ack ReturnResponse
	if err := postJSON(ctx, http.DefaultClient, "http://"+addr+"/v1/return",
		ReturnRequest{LeaseID: grant.LeaseID, Worker: "slow", Results: late}, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Duplicates != 1 || ack.Accepted != 0 {
		t.Errorf("late return: accepted=%d duplicates=%d, want 0/1", ack.Accepted, ack.Duplicates)
	}

	campaign := waitServe(t, serveCh)
	if got := campaignCSV(t, campaign); got != want {
		t.Errorf("CSV after duplicate return diverges:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if cs := coord.Stats(); cs.Duplicates != 1 {
		t.Errorf("coordinator counted %d duplicates, want 1 (%+v)", cs.Duplicates, cs)
	}
}

// TestDistributedJournalResumeCompatible pins the coordinator journal to
// the -resume checkpoint format: a journaled distributed campaign
// restarts fully restored, and a single-process session pointed at the
// same file replays it without re-running a cell — byte-identical both
// ways.
func TestDistributedJournalResumeCompatible(t *testing.T) {
	opts := testOptions()
	want := singleProcessCSV(t, opts)
	cells := opts.Cells()
	path := filepath.Join(t.TempDir(), "journal.jsonl")

	cfg := Config{
		LeaseTTL:       30 * time.Second,
		RetryDelay:     20 * time.Millisecond,
		DrainGrace:     200 * time.Millisecond,
		CheckpointPath: path,
	}
	coord, err := NewCoordinator(opts, cells, cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, serveCh := startCoordinator(t, coord)
	if _, err := Work(context.Background(), addr, WorkerOptions{Name: "w", Workers: 2}); err != nil {
		t.Fatalf("worker: %v", err)
	}
	if got := campaignCSV(t, waitServe(t, serveCh)); got != want {
		t.Errorf("journaled campaign CSV diverges:\nwant:\n%s\ngot:\n%s", want, got)
	}

	// Restarted coordinator: everything restores from the journal; the
	// campaign completes with no worker at all.
	coord2, err := NewCoordinator(opts, cells, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, serveCh2 := startCoordinator(t, coord2)
	if got := campaignCSV(t, waitServe(t, serveCh2)); got != want {
		t.Errorf("restored coordinator CSV diverges:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if cs := coord2.Stats(); cs.Restored != len(cells) {
		t.Errorf("restored %d cells, want %d", cs.Restored, len(cells))
	}

	// Single-process -resume on the same file: restores every cell.
	s := experiments.NewSession(opts)
	defer s.Close()
	if err := s.SetCheckpoint(path); err != nil {
		t.Fatalf("session refused the coordinator journal: %v", err)
	}
	campaign, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := campaignCSV(t, campaign); got != want {
		t.Errorf("-resume on the journal diverges:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if got := s.Checkpoint().Restored(); got != len(cells) {
		t.Errorf("session restored %d cells from the journal, want %d", got, len(cells))
	}
}

// TestDistributedCellFailurePropagates pins the failure path: a cell
// that errors on a worker fails the campaign promptly — Serve returns
// the cell's error even with other cells still pending (no deadlock
// waiting for leases that will never be granted), and the worker whose
// cell failed exits with an error instead of reporting success.
func TestDistributedCellFailurePropagates(t *testing.T) {
	opts := testOptions()
	cells := opts.Cells()
	cells[0].Variant = "bogus-variant" // fails in variantConfigure on any worker

	coord, err := NewCoordinator(opts, cells, Config{
		LeaseBatch: 1,
		RetryDelay: 20 * time.Millisecond,
		DrainGrace: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, serveCh := startCoordinator(t, coord)

	if _, err := Work(context.Background(), addr, WorkerOptions{Name: "w", Workers: 2}); err == nil {
		t.Error("worker reported success on a campaign its own cell failed")
	} else if !strings.Contains(err.Error(), "bogus-variant") && !strings.Contains(err.Error(), "campaign failed") {
		t.Errorf("worker error does not name the failure: %v", err)
	}

	select {
	case res := <-serveCh:
		if res.err == nil {
			t.Fatal("Serve returned a campaign from a failed run")
		}
		if !strings.Contains(res.err.Error(), "bogus-variant") {
			t.Errorf("Serve error does not carry the cell failure: %v", res.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Serve did not return after the cell failure (failure deadlock)")
	}
}

// TestDistributedRejectsForeignRecord pins the integrity check: a return
// whose record computes a different cell than the campaign's cell at
// that position is refused with 409, not merged.
func TestDistributedRejectsForeignRecord(t *testing.T) {
	opts := testOptions()
	cells := opts.Cells()
	coord, err := NewCoordinator(opts, cells, Config{DrainGrace: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srvAddr, _ := startCoordinator(t, coord)
	ctx := context.Background()

	var grant LeaseResponse
	if err := postJSON(ctx, http.DefaultClient, "http://"+srvAddr+"/v1/lease",
		LeaseRequest{Worker: "confused", Max: 1}, &grant); err != nil {
		t.Fatal(err)
	}
	// Compute the right cell but return it under the wrong position.
	session := experiments.NewSession(opts)
	defer session.Close()
	res := runLease(ctx, session, grant.Cells)
	res[0].Pos = (res[0].Pos + 1) % len(cells)

	body, _ := json.Marshal(ReturnRequest{LeaseID: grant.LeaseID, Worker: "confused", Results: res})
	resp, err := http.Post("http://"+srvAddr+"/v1/return", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("mismatched record got %s, want 409", resp.Status)
	}
	if cs := coord.Stats(); cs.Returned != 0 {
		t.Errorf("foreign record was merged: %+v", cs)
	}
}

// TestDistributedRejectsBadResidency pins the record check on returns: a
// batch holding one record whose residency could not come from
// simulating its cell (a missing row, a negative entry, a row not
// summing to the run's cycles) is refused whole with 400 — nothing
// merged — and the honest batch then merges.
func TestDistributedRejectsBadResidency(t *testing.T) {
	opts := testOptions()
	coord, err := NewCoordinator(opts, opts.Cells(), Config{DrainGrace: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srvAddr, _ := startCoordinator(t, coord)
	ctx := context.Background()

	var grant LeaseResponse
	if err := postJSON(ctx, http.DefaultClient, "http://"+srvAddr+"/v1/lease",
		LeaseRequest{Worker: "liar", Max: 2}, &grant); err != nil {
		t.Fatal(err)
	}
	if len(grant.Cells) != 2 {
		t.Fatalf("leased %d cells, want 2", len(grant.Cells))
	}
	session := experiments.NewSession(opts)
	defer session.Close()
	results := runLease(ctx, session, grant.Cells)

	post := func(results []CellReturn) (int, string) {
		t.Helper()
		body, _ := json.Marshal(ReturnRequest{LeaseID: grant.LeaseID, Worker: "liar", Results: results})
		resp, err := http.Post("http://"+srvAddr+"/v1/return", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	lies := map[string]func(rows [][stats.NumStates]sim.Time) [][stats.NumStates]sim.Time{
		"missing row": func(rows [][stats.NumStates]sim.Time) [][stats.NumStates]sim.Time { return rows[1:] },
		"negative entry": func(rows [][stats.NumStates]sim.Time) [][stats.NumStates]sim.Time {
			rows[0][stats.StateRun] += 5
			rows[0][stats.StateGated] = -5
			return rows
		},
		"row off cycles": func(rows [][stats.NumStates]sim.Time) [][stats.NumStates]sim.Time {
			rows[0][stats.StateRun]++
			return rows
		},
	}
	for name, lie := range lies {
		bad := slices.Clone(results)
		bad[1].Record.Gated.Residency = lie(slices.Clone(bad[1].Record.Gated.Residency))
		if code, msg := post(bad); code != http.StatusBadRequest || !strings.Contains(msg, "bad cell record") {
			t.Errorf("%s: return got %d %q, want 400 naming the bad record", name, code, msg)
		}
		if cs := coord.Stats(); cs.Returned != 0 {
			t.Fatalf("%s: partial merge after rejected batch: %+v", name, cs)
		}
	}
	if code, msg := post(results); code != http.StatusOK {
		t.Fatalf("honest return got %d %q, want 200", code, msg)
	}
	if cs := coord.Stats(); cs.Returned != 2 {
		t.Errorf("honest return merged %d cells, want 2 (%+v)", cs.Returned, cs)
	}
}
