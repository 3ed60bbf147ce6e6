package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
)

// Config tunes a coordinator. The zero value selects production-ish
// defaults; tests shrink the timings.
type Config struct {
	// LeaseTTL is how long a worker owns a leased batch before the
	// coordinator may hand its unfinished cells to someone else. A live
	// worker extends the deadline by POSTing /v1/renew while its cells
	// are still running, so the TTL bounds crash detection latency, not
	// cell runtime. Default 2 minutes.
	LeaseTTL time.Duration
	// LeaseBatch caps the cells granted per lease. Default 8; a
	// worker's request may ask for fewer.
	LeaseBatch int
	// RetryDelay bounds how long a lease request that finds nothing to
	// grant (all cells leased or done) is held open. A held request is
	// answered as soon as a return settles cells, an expired lease is
	// reclaimed, or the campaign completes or fails; after RetryDelay it
	// is answered empty with a hint to ask again at once. An idle worker
	// therefore sends at most one request per RetryDelay. Keep it below
	// the workers' HTTP client timeout. Default 200ms.
	RetryDelay time.Duration
	// DrainGrace bounds how long the coordinator keeps answering after
	// the campaign completes, so workers observe the end instead of a
	// vanished server. The drain ends early once every worker session
	// that joined has been answered Done; a client that sent work
	// without a session id keeps it open for the full DrainGrace.
	// Default 1s.
	DrainGrace time.Duration
	// SweepInterval is the period of the background expiry sweep Serve
	// runs: deadline-passed leases are reclaimed on this cadence even
	// when no worker is asking for work (the lease path still reclaims
	// lazily too). Default LeaseTTL/4, clamped to [25ms, 15s].
	SweepInterval time.Duration
	// StealThreshold enables straggler re-lease (work stealing): when at
	// most StealThreshold cells remain, none are pending, and an idle
	// worker asks for work, the coordinator re-leases the oldest
	// in-flight cells to it — first completed return wins, the per-cell
	// dedup discards the loser. 0 (the default) and negative values
	// disable stealing; the lease-expiry path alone then heals dead
	// workers.
	StealThreshold int
	// StealMinAge is the minimum age of a cell's current lease before
	// the cell may be stolen, damping steal ping-pong between idle
	// workers. Default LeaseTTL/2; negative means no minimum.
	StealMinAge time.Duration
	// ProgressInterval is the cadence of OnProgress callbacks from the
	// Serve background loop. 0 disables them.
	ProgressInterval time.Duration
	// OnProgress, when set (with ProgressInterval > 0), periodically
	// receives a Status snapshot while Serve runs — the hook the CLI's
	// progress logging uses.
	OnProgress func(Status)
	// CheckpointPath, when set, journals every merged cell as one JSONL
	// line — the exact checkpoint format `cmd/experiments -resume`
	// reads and writes. Restarting a coordinator (or a single-process
	// session) on the same file restores the completed cells without
	// re-running them.
	CheckpointPath string
	// OnListen, when set, is called with the bound listen address once
	// the coordinator is accepting connections — the hook loopback
	// examples and ":0" listeners use to learn the actual port.
	OnListen func(addr string)
}

func (c Config) leaseTTL() time.Duration {
	if c.LeaseTTL > 0 {
		return c.LeaseTTL
	}
	return 2 * time.Minute
}

func (c Config) leaseBatch() int {
	if c.LeaseBatch > 0 {
		return c.LeaseBatch
	}
	return 8
}

func (c Config) retryDelay() time.Duration {
	if c.RetryDelay > 0 {
		return c.RetryDelay
	}
	return 200 * time.Millisecond
}

func (c Config) drainGrace() time.Duration {
	if c.DrainGrace > 0 {
		return c.DrainGrace
	}
	return time.Second
}

func (c Config) sweepInterval() time.Duration {
	if c.SweepInterval > 0 {
		return c.SweepInterval
	}
	iv := c.leaseTTL() / 4
	if iv < 25*time.Millisecond {
		iv = 25 * time.Millisecond
	}
	if iv > 15*time.Second {
		iv = 15 * time.Second
	}
	return iv
}

func (c Config) stealMinAge() time.Duration {
	switch {
	case c.StealMinAge > 0:
		return c.StealMinAge
	case c.StealMinAge < 0:
		return 0
	}
	return c.leaseTTL() / 2
}

// Stats counts coordinator activity.
type Stats struct {
	// Leases is the number of non-empty lease grants.
	Leases int
	// Expired counts leases reclaimed after their deadline passed with
	// cells unfinished.
	Expired int
	// Returned counts cell results merged into the campaign.
	Returned int
	// Duplicates counts returned results discarded because the cell was
	// already complete (the dedup-on-re-lease rule).
	Duplicates int
	// Restored counts cells restored from the checkpoint journal at
	// startup instead of leased out.
	Restored int
	// Renewals counts granted /v1/renew deadline extensions.
	Renewals int
	// Steals counts cells re-leased to an idle worker while still
	// in-flight on another (the straggler re-lease rule).
	Steals int
}

// cellPhase is the lease state machine of one cell:
//
//	pending --lease--> leased --return--> done
//	   ^                  |
//	   +---deadline past--+
//
// done is terminal; a done cell can never be leased again, and a second
// return of it is discarded as a duplicate. A leased cell may also be
// re-leased to a second worker (straggler steal): the phase stays
// leased, ownership moves to the newest lease, and the first completed
// return — from either owner — wins.
type cellPhase uint8

const (
	cellPending cellPhase = iota
	cellLeased
	cellDone
)

// lease is one granted batch.
type lease struct {
	id       uint64
	worker   string
	cells    []int // canonical positions granted
	granted  time.Time
	deadline time.Time
}

// workerCounters is the per-worker accounting behind Status.Workers,
// keyed by the free-form worker name.
type workerCounters struct {
	leases     int
	returned   int
	duplicates int
	renewals   int
	steals     int
	expired    int
	lastSeen   time.Time
}

// journalEntry is one merged cell queued for the checkpoint journal:
// appended under c.mu (so the queue carries the merge order), written
// outside it (so fsync-grade I/O never stalls leases and returns).
type journalEntry struct {
	pos  int
	cell experiments.Cell
	out  *core.Outcome
}

// Coordinator owns one campaign's canonical cell list and runs its lease
// state machine. Create with NewCoordinator, expose via Handler or
// Serve. Safe for concurrent use by the HTTP handlers.
type Coordinator struct {
	cfg         Config
	opts        experiments.Options
	fingerprint string
	cells       []experiments.Cell
	startedAt   time.Time

	mu        sync.Mutex
	phase     []cellPhase
	owner     []uint64 // active lease id per leased cell
	outcomes  []*core.Outcome
	errs      []error // per-cell failures, by position
	remaining int
	leases    map[uint64]*lease
	nextLease uint64
	stats     Stats
	workers   map[string]*workerCounters
	ckpt      *experiments.Checkpoint
	journalQ  []journalEntry
	done      chan struct{}
	failed    bool
	// wake is closed and replaced by broadcastLocked; held lease
	// requests and the drain wait on it outside mu.
	wake chan struct{}
	// sessions maps every worker session id seen to whether it has
	// been answered Done (or Err); untold counts the false entries.
	sessions map[uint64]bool
	untold   int
	// anonymous records a work request without a session id. Such a
	// client cannot be told apart from others, so the drain keeps the
	// full DrainGrace for it.
	anonymous bool

	// journalMu serializes journal flushes; held without c.mu so a slow
	// disk blocks only other flushers, never the lease/return paths.
	journalMu sync.Mutex
}

// NewCoordinator builds a coordinator for the given cells — the
// campaign's canonical order, exactly the slice a single-process
// Session.Run would execute. With Config.CheckpointPath set, cells
// already journaled there are restored immediately (the journal is
// validated against the options fingerprint, like -resume).
func NewCoordinator(opts experiments.Options, cells []experiments.Cell, cfg Config) (*Coordinator, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("dist: no cells to coordinate")
	}
	c := &Coordinator{
		cfg:         cfg,
		opts:        opts,
		fingerprint: opts.Fingerprint(),
		cells:       cells,
		startedAt:   time.Now(),
		phase:       make([]cellPhase, len(cells)),
		owner:       make([]uint64, len(cells)),
		outcomes:    make([]*core.Outcome, len(cells)),
		errs:        make([]error, len(cells)),
		remaining:   len(cells),
		leases:      make(map[uint64]*lease),
		workers:     make(map[string]*workerCounters),
		done:        make(chan struct{}),
		wake:        make(chan struct{}),
		sessions:    make(map[uint64]bool),
	}
	if cfg.CheckpointPath != "" {
		ck, err := experiments.OpenCheckpoint(cfg.CheckpointPath, c.fingerprint)
		if err != nil {
			return nil, err
		}
		c.ckpt = ck
		for i, cell := range cells {
			if out, ok := ck.Lookup(cell); ok {
				c.outcomes[i] = out
				c.phase[i] = cellDone
				c.remaining--
				c.stats.Restored++
			}
		}
		if c.remaining == 0 {
			close(c.done)
		}
	}
	return c, nil
}

// Stats returns a snapshot of the activity counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Handler returns the coordinator's HTTP protocol surface: the three
// work endpoints plus the read-only control plane (/v1/status JSON and
// the Prometheus-style /metrics text).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/campaign", c.handleCampaign)
	mux.HandleFunc("POST /v1/lease", c.handleLease)
	mux.HandleFunc("POST /v1/renew", c.handleRenew)
	mux.HandleFunc("POST /v1/return", c.handleReturn)
	mux.HandleFunc("GET /v1/status", c.handleStatus)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (c *Coordinator) handleCampaign(w http.ResponseWriter, r *http.Request) {
	var session uint64
	if q := r.URL.Query().Get("session"); q != "" {
		id, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad session id %q", q), http.StatusBadRequest)
			return
		}
		session = id
	}
	c.mu.Lock()
	c.sessionLocked(session)
	c.mu.Unlock()
	writeJSON(w, CampaignInfo{
		Protocol:    ProtocolVersion,
		Fingerprint: c.fingerprint,
		Options:     c.opts,
		Cells:       len(c.cells),
	})
}

// workerLocked returns (creating on first contact) the counters for the
// named worker and stamps its last-seen time. Called with mu held.
func (c *Coordinator) workerLocked(name string, now time.Time) *workerCounters {
	wk := c.workers[name]
	if wk == nil {
		wk = &workerCounters{}
		c.workers[name] = wk
	}
	wk.lastSeen = now
	return wk
}

// closeDoneLocked signals campaign completion exactly once. Called with
// mu held.
func (c *Coordinator) closeDoneLocked() {
	select {
	case <-c.done:
	default:
		close(c.done)
		c.broadcastLocked()
	}
}

// broadcastLocked wakes every held lease request and the drain: it is
// called on each change that can create work or end the campaign (a
// return that settles cells, an expiry reclaim, completion or failure)
// and when a session is answered Done. Called with mu held.
func (c *Coordinator) broadcastLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// sessionLocked records a work request from worker session id, where 0
// means the client sent none. Called with mu held.
func (c *Coordinator) sessionLocked(id uint64) {
	if id == 0 {
		c.anonymous = true
		return
	}
	if _, ok := c.sessions[id]; !ok {
		c.sessions[id] = false
		c.untold++
	}
}

// toldLocked records that session id has been answered Done (or Err),
// after which its worker exits. Called with mu held, after
// sessionLocked for the same request.
func (c *Coordinator) toldLocked(id uint64) {
	if told, ok := c.sessions[id]; !ok || told {
		return
	}
	c.sessions[id] = true
	c.untold--
	c.broadcastLocked()
}

// reclaimExpired returns every cell of every deadline-passed lease to
// the pending pool and reports whether any cell went back. Called with
// mu held — lazily from the lease path,
// and periodically from Serve's background sweep, so a fleet whose
// workers all died still reclaims (and reports) the leases without
// waiting for a live worker to ask for work. Cells whose ownership
// moved to a newer lease (a renewal keeps ownership; a steal moves it)
// are left alone: only the current owner's deadline matters.
func (c *Coordinator) reclaimExpired(now time.Time) bool {
	reclaimed := false
	for id, l := range c.leases {
		if now.Before(l.deadline) {
			continue
		}
		expired := false
		for _, pos := range l.cells {
			if c.phase[pos] == cellLeased && c.owner[pos] == id {
				c.phase[pos] = cellPending
				c.owner[pos] = 0
				expired = true
			}
		}
		delete(c.leases, id)
		if expired {
			reclaimed = true
			c.stats.Expired++
			if wk := c.workers[l.worker]; wk != nil {
				wk.expired++
			}
		}
	}
	return reclaimed
}

// stealLocked implements the straggler re-lease rule: with no pending
// cells, at most Config.StealThreshold cells remaining, and an idle
// worker asking, the oldest in-flight cells of *other* workers are
// granted again. Ownership moves to the new lease; whichever copy
// returns first wins (the per-cell dedup discards the other), so the
// merged bytes cannot change. Called with mu held; returns nil when
// stealing is disabled or no cell qualifies.
func (c *Coordinator) stealLocked(worker string, now time.Time, max int) ([]LeasedCell, []int) {
	if c.cfg.StealThreshold <= 0 || c.remaining > c.cfg.StealThreshold {
		return nil, nil
	}
	minAge := c.cfg.stealMinAge()
	type candidate struct {
		pos     int
		granted time.Time
	}
	var cands []candidate
	for pos := range c.cells {
		if c.phase[pos] != cellLeased {
			continue
		}
		l := c.leases[c.owner[pos]]
		if l == nil || l.worker == worker {
			continue
		}
		if now.Sub(l.granted) < minAge {
			continue
		}
		cands = append(cands, candidate{pos: pos, granted: l.granted})
	}
	// Oldest in-flight first: the longest-running lease is the likeliest
	// straggler. Position breaks ties so the order is deterministic.
	sort.Slice(cands, func(i, j int) bool {
		if !cands[i].granted.Equal(cands[j].granted) {
			return cands[i].granted.Before(cands[j].granted)
		}
		return cands[i].pos < cands[j].pos
	})
	if len(cands) > max {
		cands = cands[:max]
	}
	var granted []LeasedCell
	var positions []int
	for _, cd := range cands {
		granted = append(granted, LeasedCell{Pos: cd.pos, Cell: c.cells[cd.pos]})
		positions = append(positions, cd.pos)
	}
	return granted, positions
}

// handleLease grants pending (or stealable) cells. A request that finds
// nothing to grant while the campaign runs is held (a long poll) until
// broadcastLocked signals a change, the client goes away, or RetryDelay
// passes, and is evaluated again after each. One that is still empty
// after RetryDelay is answered with a 1 ms RetryMS hint, so the worker
// asks again at once.
func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad lease request: %v", err), http.StatusBadRequest)
		return
	}
	max := req.Max
	if max <= 0 || max > c.cfg.leaseBatch() {
		max = c.cfg.leaseBatch()
	}

	var hold *time.Timer
	for timedOut := false; ; {
		c.mu.Lock()
		resp, answered := c.leaseLocked(req, max)
		wake := c.wake
		c.mu.Unlock()
		if answered || timedOut {
			writeJSON(w, resp)
			return
		}
		if hold == nil {
			hold = time.NewTimer(c.cfg.retryDelay())
			defer hold.Stop()
		}
		select {
		case <-wake:
		case <-hold.C:
			timedOut = true
		case <-r.Context().Done():
			return
		}
	}
}

// leaseLocked evaluates one lease request. It answers Done (with Err
// for a failed campaign) or a grant; when everything is leased out or
// done it returns answered=false and the empty response to send if the
// request is not held any longer. Called with mu held.
func (c *Coordinator) leaseLocked(req LeaseRequest, max int) (resp LeaseResponse, answered bool) {
	now := time.Now()
	c.sessionLocked(req.Session)
	wk := c.workerLocked(req.Worker, now)
	if c.failed {
		c.toldLocked(req.Session)
		return LeaseResponse{Done: true, Err: c.firstErrLocked().Error()}, true
	}
	if c.remaining == 0 {
		c.toldLocked(req.Session)
		return LeaseResponse{Done: true}, true
	}
	if c.reclaimExpired(now) {
		c.broadcastLocked()
	}

	var granted []LeasedCell
	var positions []int
	for pos := range c.cells {
		if len(granted) >= max {
			break
		}
		if c.phase[pos] != cellPending {
			continue
		}
		granted = append(granted, LeasedCell{Pos: pos, Cell: c.cells[pos]})
		positions = append(positions, pos)
	}
	stolen := 0
	if len(granted) == 0 {
		granted, positions = c.stealLocked(req.Worker, now, max)
		stolen = len(positions)
	}
	if len(granted) == 0 {
		// Everything is leased out or done: an expiry or a qualifying
		// steal may still free work before the campaign completes.
		return LeaseResponse{RetryMS: 1}, false
	}
	c.nextLease++
	l := &lease{
		id:       c.nextLease,
		worker:   req.Worker,
		cells:    positions,
		granted:  now,
		deadline: now.Add(c.cfg.leaseTTL()),
	}
	c.leases[l.id] = l
	for _, pos := range positions {
		c.phase[pos] = cellLeased
		c.owner[pos] = l.id
	}
	c.stats.Leases++
	wk.leases++
	if stolen > 0 {
		c.stats.Steals += stolen
		wk.steals += stolen
	}
	return LeaseResponse{
		LeaseID:    l.id,
		Cells:      granted,
		DeadlineMS: c.cfg.leaseTTL().Milliseconds(),
	}, true
}

// handleRenew extends a live lease's deadline by one TTL — the
// heartbeat a worker sends while a leased cell is still running, so
// slow cells outlive the TTL instead of being reclaimed mid-compute. A
// lease the coordinator no longer tracks (expired and reclaimed, or
// fully returned) answers Expired: the worker stops renewing but may
// still return its results — the per-cell dedup sorts it out.
func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req RenewRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad renew request: %v", err), http.StatusBadRequest)
		return
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.sessionLocked(req.Session)
	wk := c.workerLocked(req.Worker, now)
	if c.failed {
		c.toldLocked(req.Session)
		writeJSON(w, RenewResponse{Err: c.firstErrLocked().Error()})
		return
	}
	if c.remaining == 0 {
		c.toldLocked(req.Session)
		writeJSON(w, RenewResponse{Done: true})
		return
	}
	l, ok := c.leases[req.LeaseID]
	if !ok {
		writeJSON(w, RenewResponse{Expired: true})
		return
	}
	l.deadline = now.Add(c.cfg.leaseTTL())
	c.stats.Renewals++
	wk.renewals++
	writeJSON(w, RenewResponse{DeadlineMS: c.cfg.leaseTTL().Milliseconds()})
}

func (c *Coordinator) handleReturn(w http.ResponseWriter, r *http.Request) {
	var req ReturnRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad return request: %v", err), http.StatusBadRequest)
		return
	}
	// A record is untrusted input: one whose residency could not have
	// come from simulating its cell fails the whole return.
	for _, res := range req.Results {
		if res.Err != "" {
			continue
		}
		if err := res.Record.Validate(); err != nil {
			http.Error(w, fmt.Sprintf("result for position %d: %v", res.Pos, err), http.StatusBadRequest)
			return
		}
	}

	c.mu.Lock()
	// Validate the whole batch before mutating any state: a bad record
	// at index k > 0 must not leave indices < k merged, journaled and
	// counted behind a 4xx — the return is atomic, accepted or rejected
	// as a unit, so a worker can safely retry an identical request.
	for _, res := range req.Results {
		if res.Pos < 0 || res.Pos >= len(c.cells) {
			c.mu.Unlock()
			http.Error(w, fmt.Sprintf("result position %d out of range [0,%d)", res.Pos, len(c.cells)), http.StatusBadRequest)
			return
		}
		if res.Err == "" && res.Record.Cell.Key() != c.cells[res.Pos].Key() {
			// A record that does not compute the campaign's cell at
			// this position can never be merged — reject the whole
			// return so the bug is loud.
			c.mu.Unlock()
			http.Error(w, fmt.Sprintf("result for position %d is cell %q, campaign expects %q",
				res.Pos, res.Record.Cell.Key(), c.cells[res.Pos].Key()), http.StatusConflict)
			return
		}
	}

	c.sessionLocked(req.Session)
	wk := c.workerLocked(req.Worker, time.Now())
	var resp ReturnResponse
	for _, res := range req.Results {
		if c.phase[res.Pos] == cellDone {
			// Dedup-on-re-lease: the cell was already completed (by an
			// earlier return, possibly after this worker's lease
			// expired or its cell was stolen and re-ran elsewhere).
			// Cells are deterministic, so discarding the late copy
			// cannot change the merged output.
			resp.Duplicates++
			c.stats.Duplicates++
			wk.duplicates++
			continue
		}
		if res.Err != "" {
			c.errs[res.Pos] = fmt.Errorf("dist: cell %d (%s): %s", c.cells[res.Pos].Index, c.cells[res.Pos].Label(), res.Err)
			c.failed = true
		} else {
			out := res.Record.Outcome()
			c.outcomes[res.Pos] = out
			if c.ckpt != nil {
				// Buffer the journal record under the lock (the queue
				// carries the merge order) and write it after releasing
				// it: fsync-grade I/O must not stall every concurrent
				// lease and return on c.mu.
				c.journalQ = append(c.journalQ, journalEntry{pos: res.Pos, cell: c.cells[res.Pos], out: out})
			}
		}
		c.phase[res.Pos] = cellDone
		c.owner[res.Pos] = 0
		c.remaining--
		c.stats.Returned++
		wk.returned++
		resp.Accepted++
	}
	// A fully-returned lease has nothing left to reclaim: drop it now
	// instead of letting it linger until the TTL sweep.
	if l, ok := c.leases[req.LeaseID]; ok {
		settled := true
		for _, pos := range l.cells {
			if c.phase[pos] != cellDone {
				settled = false
				break
			}
		}
		if settled {
			delete(c.leases, req.LeaseID)
		}
	}
	if resp.Accepted > 0 {
		// Fewer cells remain: a held request may now steal one, or
		// (below) learn that the campaign is over.
		c.broadcastLocked()
	}
	c.mu.Unlock()

	c.flushJournal()

	// The campaign ends when every cell is accounted for — or as soon as
	// any cell fails: cells are deterministic, so a failed cell would
	// fail on every worker, and waiting for the rest would leave Serve
	// blocked forever once leases stop being granted. Completion is
	// signaled only after the journal flush above, so Serve never closes
	// a checkpoint file with this handler's records still queued.
	c.mu.Lock()
	if c.remaining == 0 || c.failed {
		c.closeDoneLocked()
		c.toldLocked(req.Session)
		resp.Done = true
	}
	c.mu.Unlock()
	writeJSON(w, resp)
}

// flushJournal drains the queued checkpoint records to disk outside
// c.mu. journalMu serializes flushers; because entries are appended to
// journalQ under c.mu (in merge order) and each flusher drains the
// queue FIFO — including entries other handlers appended while this
// flush ran — the journal preserves the merge order exactly, as if the
// writes still happened under the big lock.
func (c *Coordinator) flushJournal() {
	if c.ckpt == nil {
		return
	}
	c.journalMu.Lock()
	defer c.journalMu.Unlock()
	for {
		c.mu.Lock()
		q := c.journalQ
		c.journalQ = nil
		c.mu.Unlock()
		if len(q) == 0 {
			return
		}
		for _, e := range q {
			if err := c.ckpt.Record(e.cell, e.out); err != nil {
				c.mu.Lock()
				if c.errs[e.pos] == nil {
					c.errs[e.pos] = fmt.Errorf("dist: journal: %w", err)
				}
				c.failed = true
				c.closeDoneLocked()
				c.mu.Unlock()
				return
			}
		}
	}
}

// firstErrLocked returns the lowest-position cell failure, mirroring the
// deterministic error reporting of Session.RunCells. Called with mu
// held; nil when no cell failed.
func (c *Coordinator) firstErrLocked() error {
	for _, err := range c.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Campaign assembles the merged campaign in canonical cell order. It is
// valid once every cell is accounted for (Serve returns it); calling it
// earlier returns an error.
func (c *Coordinator) Campaign() (*experiments.Campaign, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.firstErrLocked(); err != nil {
		return nil, err
	}
	if c.remaining != 0 {
		return nil, fmt.Errorf("dist: campaign incomplete: %d of %d cells outstanding", c.remaining, len(c.cells))
	}
	return &experiments.Campaign{Options: c.opts, Cells: c.cells, Outcomes: c.outcomes}, nil
}

// background runs the expiry sweep (and the optional progress callback)
// until stop closes. The sweep is what keeps the lease state machine
// honest with no live workers: a fleet that all died still has its
// leases reclaimed and reported on the sweep cadence, and /v1/status
// reflects reality instead of whatever the last lease request saw.
func (c *Coordinator) background(stop <-chan struct{}) {
	sweep := time.NewTicker(c.cfg.sweepInterval())
	defer sweep.Stop()
	var progress <-chan time.Time
	if c.cfg.ProgressInterval > 0 && c.cfg.OnProgress != nil {
		t := time.NewTicker(c.cfg.ProgressInterval)
		defer t.Stop()
		progress = t.C
	}
	for {
		select {
		case <-stop:
			return
		case now := <-sweep.C:
			c.mu.Lock()
			if c.reclaimExpired(now) {
				c.broadcastLocked()
			}
			c.mu.Unlock()
		case <-progress:
			c.cfg.OnProgress(c.Status())
		}
	}
}

// Serve runs the coordinator on the listener until the campaign
// completes or ctx is canceled, then returns the merged campaign. While
// serving, a background loop sweeps expired leases every
// Config.SweepInterval and emits Config.OnProgress snapshots. After
// completion the server drains (see drain) so workers observe the end
// instead of a vanished server; a cancel during the drain only ends it
// early, and Serve still returns the completed campaign. The listener
// is closed on return; the checkpoint journal, if any, is closed too.
func (c *Coordinator) Serve(ctx context.Context, ln net.Listener) (*experiments.Campaign, error) {
	srv := &http.Server{Handler: c.Handler()}
	errCh := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			errCh <- err
		}
	}()
	defer srv.Close()
	if c.ckpt != nil {
		defer c.ckpt.Close()
	}
	stop := make(chan struct{})
	go c.background(stop)
	defer close(stop)
	if c.cfg.OnListen != nil {
		c.cfg.OnListen(ln.Addr().String())
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case err := <-errCh:
		return nil, fmt.Errorf("dist: coordinator server: %w", err)
	case <-c.done:
	}
	c.drain(ctx)
	// Let answers still being written, such as the Done that ended the
	// drain, reach their workers before the connections close.
	sctx, cancel := context.WithTimeout(context.Background(), c.cfg.drainGrace())
	srv.Shutdown(sctx)
	cancel()
	return c.Campaign()
}

// drain keeps a finished campaign's server answering until every worker
// session that joined has been answered Done, DrainGrace passes, or ctx
// is canceled. Any work request without a session id (an older worker,
// a raw client) keeps the drain open for the full DrainGrace, and so
// does a session that joined and died.
func (c *Coordinator) drain(ctx context.Context) {
	grace := time.NewTimer(c.cfg.drainGrace())
	defer grace.Stop()
	for {
		c.mu.Lock()
		drained := !c.anonymous && c.untold == 0
		wake := c.wake
		c.mu.Unlock()
		if drained {
			return
		}
		select {
		case <-wake:
		case <-grace.C:
			return
		case <-ctx.Done():
			return
		}
	}
}
