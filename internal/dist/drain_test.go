// End-of-campaign tests: the event-driven drain (Serve stops once every
// worker session that joined has been answered Done, whatever the
// workers are named, and keeps the full DrainGrace for a joined session
// that never hears it or a client without a session id), the long-poll
// on /v1/lease, and a cancel during the drain keeping the finished
// campaign. Named TestFleet* so the race-enabled fleet lane runs them.
package dist

import (
	"context"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
)

// TestFleetDrainEndsWhenWorkersTold pins the event-driven drain: with a
// 30 s DrainGrace, Serve returns as soon as both workers have been told
// Done, although they share the name "w", and the CSV stays
// byte-identical to a single-process run.
func TestFleetDrainEndsWhenWorkersTold(t *testing.T) {
	opts := testOptions()
	want := singleProcessCSV(t, opts)

	coord, err := NewCoordinator(opts, opts.Cells(), Config{
		LeaseTTL:   30 * time.Second,
		LeaseBatch: 1,
		RetryDelay: 20 * time.Millisecond,
		DrainGrace: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, serveCh := startCoordinator(t, coord)

	var wg sync.WaitGroup
	workerErrs := make([]error, 2)
	for i := range workerErrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, workerErrs[i] = Work(context.Background(), addr,
				WorkerOptions{Name: "w", Workers: 2, MaxBatch: 1})
		}()
	}
	wg.Wait()
	exited := time.Now()
	for i, err := range workerErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	select {
	case res := <-serveCh:
		if res.err != nil {
			t.Fatalf("coordinator: %v", res.err)
		}
		if got := campaignCSV(t, res.campaign); got != want {
			t.Errorf("CSV diverges from single-process run:\nwant:\n%s\ngot:\n%s", want, got)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("Serve still draining %v after both workers were told Done (DrainGrace 30s)", time.Since(exited))
	}
}

// TestFleetDrainWaitsForJoinedSession pins the drain's upper bound: a
// session that joins but never leases is never told Done, so the drain
// keeps the full DrainGrace for it.
func TestFleetDrainWaitsForJoinedSession(t *testing.T) {
	opts := testOptions()
	want := singleProcessCSV(t, opts)
	const grace = time.Second

	coord, err := NewCoordinator(opts, opts.Cells(), Config{
		LeaseTTL:   30 * time.Second,
		RetryDelay: 20 * time.Millisecond,
		DrainGrace: grace,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, serveCh := startCoordinator(t, coord)
	ctx := context.Background()

	var info CampaignInfo
	if err := getJSON(ctx, http.DefaultClient, "http://"+addr+"/v1/campaign?session=7", &info); err != nil {
		t.Fatal(err)
	}
	if _, err := Work(ctx, addr, WorkerOptions{Name: "w", Workers: 2}); err != nil {
		t.Fatalf("worker: %v", err)
	}
	exited := time.Now()

	campaign := waitServe(t, serveCh)
	// The drain starts at completion, just before the worker's last
	// answer; allow that gap and nothing more.
	if elapsed := time.Since(exited); elapsed < grace-200*time.Millisecond {
		t.Errorf("drain ended %v after the last worker exited with a joined session never told Done; want the full DrainGrace %v", elapsed, grace)
	}
	if got := campaignCSV(t, campaign); got != want {
		t.Errorf("CSV diverges from single-process run:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestFleetLeaseLongPoll pins the held /v1/lease request: with a 10 s
// RetryDelay, a request that finds nothing to grant is answered as soon
// as another worker's final return completes the campaign, and as soon
// as the background sweep expires a lease whose cells it can take.
func TestFleetLeaseLongPoll(t *testing.T) {
	opts := testOptions()
	want := singleProcessCSV(t, opts)
	cells := opts.Cells()
	ctx := context.Background()

	// heldLease posts a lease request for session 2 in the background.
	type answer struct {
		resp LeaseResponse
		err  error
		at   time.Time
	}
	heldLease := func(addr string) <-chan answer {
		ch := make(chan answer, 1)
		go func() {
			var a answer
			a.err = postJSON(ctx, http.DefaultClient, "http://"+addr+"/v1/lease",
				LeaseRequest{Worker: "b", Session: 2, Max: 8}, &a.resp)
			a.at = time.Now()
			ch <- a
		}()
		return ch
	}
	// leaseAll leases every cell to session 1.
	leaseAll := func(addr string) LeaseResponse {
		var grant LeaseResponse
		if err := postJSON(ctx, http.DefaultClient, "http://"+addr+"/v1/lease",
			LeaseRequest{Worker: "a", Session: 1, Max: 8}, &grant); err != nil {
			t.Fatal(err)
		}
		if len(grant.Cells) != len(cells) {
			t.Fatalf("leased %d cells, want all %d", len(grant.Cells), len(cells))
		}
		return grant
	}

	t.Run("done-on-final-return", func(t *testing.T) {
		coord, err := NewCoordinator(opts, cells, Config{
			LeaseTTL:   30 * time.Second,
			LeaseBatch: 8,
			RetryDelay: 10 * time.Second,
			DrainGrace: 300 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		addr, serveCh := startCoordinator(t, coord)
		grant := leaseAll(addr)
		session := experiments.NewSession(opts)
		defer session.Close()
		results := runLease(ctx, session, grant.Cells)

		held := heldLease(addr)
		// Wait until the coordinator has seen the request, then make
		// sure it is being held rather than answered.
		for deadline := time.Now().Add(5 * time.Second); !hasWorker(coord, "b"); {
			if time.Now().After(deadline) {
				t.Fatal("held lease request never reached the coordinator")
			}
			time.Sleep(5 * time.Millisecond)
		}
		select {
		case a := <-held:
			t.Fatalf("lease with nothing to grant answered at once: %+v (err %v)", a.resp, a.err)
		case <-time.After(50 * time.Millisecond):
		}

		returned := time.Now()
		var ack ReturnResponse
		if err := postJSON(ctx, http.DefaultClient, "http://"+addr+"/v1/return",
			ReturnRequest{LeaseID: grant.LeaseID, Worker: "a", Session: 1, Results: results}, &ack); err != nil {
			t.Fatal(err)
		}
		if !ack.Done {
			t.Fatalf("final return not answered Done: %+v", ack)
		}
		a := <-held
		if a.err != nil {
			t.Fatal(a.err)
		}
		if !a.resp.Done {
			t.Errorf("held lease answered %+v, want Done", a.resp)
		}
		if wait := a.at.Sub(returned); wait > time.Second {
			t.Errorf("held lease answered Done %v after the final return, want under 1s (RetryDelay 10s)", wait)
		}
		if got := campaignCSV(t, waitServe(t, serveCh)); got != want {
			t.Errorf("CSV diverges from single-process run:\nwant:\n%s\ngot:\n%s", want, got)
		}
	})

	t.Run("granted-on-sweep-expiry", func(t *testing.T) {
		const ttl = 300 * time.Millisecond
		coord, err := NewCoordinator(opts, cells, Config{
			LeaseTTL:      ttl,
			LeaseBatch:    8,
			RetryDelay:    10 * time.Second,
			SweepInterval: 25 * time.Millisecond,
			DrainGrace:    300 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		addr, serveCh := startCoordinator(t, coord)
		// Session 1 takes every cell and dies: it never renews.
		dead := leaseAll(addr)
		asked := time.Now()

		a := <-heldLease(addr)
		if a.err != nil {
			t.Fatal(a.err)
		}
		if wait := a.at.Sub(asked); wait > 5*time.Second {
			t.Errorf("held lease granted %v after asking, want soon after the %v TTL (RetryDelay 10s)", wait, ttl)
		}
		if len(a.resp.Cells) != len(dead.Cells) {
			t.Fatalf("held lease granted %d cells, want the expired lease's %d", len(a.resp.Cells), len(dead.Cells))
		}
		for i, lc := range a.resp.Cells {
			if lc.Pos != dead.Cells[i].Pos {
				t.Errorf("held lease cell %d at pos %d, want the expired lease's pos %d", i, lc.Pos, dead.Cells[i].Pos)
			}
		}
		if cs := coord.Stats(); cs.Expired != 1 {
			t.Errorf("coordinator counted %d expired leases, want 1 (%+v)", cs.Expired, cs)
		}

		session := experiments.NewSession(opts)
		defer session.Close()
		var ack ReturnResponse
		if err := postJSON(ctx, http.DefaultClient, "http://"+addr+"/v1/return",
			ReturnRequest{LeaseID: a.resp.LeaseID, Worker: "b", Session: 2,
				Results: runLease(ctx, session, a.resp.Cells)}, &ack); err != nil {
			t.Fatal(err)
		}
		if !ack.Done {
			t.Errorf("return of every cell not answered Done: %+v", ack)
		}
		if got := campaignCSV(t, waitServe(t, serveCh)); got != want {
			t.Errorf("CSV diverges from single-process run:\nwant:\n%s\ngot:\n%s", want, got)
		}
	})
}

// TestFleetServeCancelDuringDrainKeepsCampaign pins two fixes. A cancel
// after completion only ends the drain: Serve still returns the merged
// campaign. And every answer, Done included, stamps the worker's last
// contact in /v1/status. A raw client without a session id holds the
// drain open meanwhile.
func TestFleetServeCancelDuringDrainKeepsCampaign(t *testing.T) {
	opts := testOptions()
	want := singleProcessCSV(t, opts)
	cells := opts.Cells()

	coord, err := NewCoordinator(opts, cells, Config{
		LeaseTTL:   30 * time.Second,
		LeaseBatch: 8,
		RetryDelay: 20 * time.Millisecond,
		DrainGrace: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	serveCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveCh := make(chan serveResult, 1)
	go func() {
		campaign, err := coord.Serve(serveCtx, ln)
		serveCh <- serveResult{campaign, err}
	}()
	ctx := context.Background()

	var grant LeaseResponse
	if err := postJSON(ctx, http.DefaultClient, "http://"+addr+"/v1/lease",
		LeaseRequest{Worker: "raw", Max: 8}, &grant); err != nil {
		t.Fatal(err)
	}
	if len(grant.Cells) != len(cells) {
		t.Fatalf("raw client leased %d cells, want all %d", len(grant.Cells), len(cells))
	}
	session := experiments.NewSession(opts)
	defer session.Close()
	var ack ReturnResponse
	if err := postJSON(ctx, http.DefaultClient, "http://"+addr+"/v1/return",
		ReturnRequest{LeaseID: grant.LeaseID, Worker: "raw", Results: runLease(ctx, session, grant.Cells)}, &ack); err != nil {
		t.Fatal(err)
	}
	if !ack.Done {
		t.Fatalf("return of every cell not answered Done: %+v", ack)
	}

	// A worker first heard from after completion is answered Done, and
	// that contact is its last-seen stamp.
	var late LeaseResponse
	if err := postJSON(ctx, http.DefaultClient, "http://"+addr+"/v1/lease",
		LeaseRequest{Worker: "late"}, &late); err != nil {
		t.Fatal(err)
	}
	if !late.Done {
		t.Fatalf("lease after completion answered %+v, want Done", late)
	}
	st, err := FetchStatus(ctx, nil, addr)
	if err != nil {
		t.Fatal(err)
	}
	seen := false
	for _, wk := range st.Workers {
		if wk.Name == "late" {
			seen = true
			if wk.LastSeenMS > 5000 {
				t.Errorf("late worker last seen %d ms ago, want its Done answer just now", wk.LastSeenMS)
			}
		}
	}
	if !seen {
		t.Errorf("/v1/status has no row for a worker answered Done: %+v", st.Workers)
	}

	select {
	case res := <-serveCh:
		t.Fatalf("Serve ended the drain with a session-less client seen: %+v", res)
	case <-time.After(100 * time.Millisecond):
	}
	cancel()
	select {
	case res := <-serveCh:
		if res.err != nil {
			t.Fatalf("cancel during the drain discarded the finished campaign: %v", res.err)
		}
		if got := campaignCSV(t, res.campaign); got != want {
			t.Errorf("CSV diverges from single-process run:\nwant:\n%s\ngot:\n%s", want, got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after a cancel during the drain")
	}
}

// hasWorker reports whether the coordinator has heard from the named
// worker.
func hasWorker(c *Coordinator, name string) bool {
	for _, wk := range c.Status().Workers {
		if wk.Name == name {
			return true
		}
	}
	return false
}
