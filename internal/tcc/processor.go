// Package tcc assembles the full simulated machine: in-order TCC
// processors executing transactional workload traces over the bus,
// directory, and token-vendor substrates, with the paper's clock-gating
// protocol layered on top when enabled.
package tcc

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/directory"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tokens"
	"repro/internal/trace"
	"repro/internal/workload"
)

// procState is the processor FSM state.
type procState uint8

const (
	// stateIdle: before the thread's first transaction begins.
	stateIdle procState = iota
	// stateRunTx: executing a transaction body (or inter-tx code).
	stateRunTx
	// stateWaitMiss: stalled on an L1 miss.
	stateWaitMiss
	// stateWaitTID: waiting for the token vendor's TID reply.
	stateWaitTID
	// stateCommitWait: marked in directories, spinning for the grant.
	stateCommitWait
	// stateCommitting: writing the write-set (commit-immune).
	stateCommitting
	// stateGated: clocks stopped by a directory.
	stateGated
	// stateDone: all transactions committed; spinning at the barrier.
	stateDone
)

func (s procState) String() string {
	switch s {
	case stateIdle:
		return "idle"
	case stateRunTx:
		return "runTx"
	case stateWaitMiss:
		return "waitMiss"
	case stateWaitTID:
		return "waitTID"
	case stateCommitWait:
		return "commitWait"
	case stateCommitting:
		return "committing"
	case stateGated:
		return "gated"
	case stateDone:
		return "done"
	default:
		return fmt.Sprintf("procState(%d)", uint8(s))
	}
}

// powerState maps an FSM state to its Table I power state. Spinning —
// whether for the commit grant, the TID, or at the final barrier — burns
// full run power (§VII: "at synchronization points the processor consumes
// full run mode power while executing spin-locks").
func (s procState) powerState() stats.State {
	switch s {
	case stateWaitMiss:
		return stats.StateMiss
	case stateCommitting:
		return stats.StateCommit
	case stateGated:
		return stats.StateGated
	default:
		return stats.StateRun
	}
}

// ProcStats aggregates one processor's protocol activity.
type ProcStats struct {
	Commits          uint64
	Aborts           uint64 // remote invalidation aborts
	ValidationAborts uint64 // aborts taken at the commit validation phase
	SelfAborts       uint64 // aborts executed on wake-up from gating
	Gatings          uint64 // times the clock actually froze
	ReadOnlyCommits  uint64
	MaxAttempts      int // worst-case attempts for a single transaction
}

// Processor models one single-issue in-order TCC core executing a
// transaction stream.
type Processor struct {
	id  int
	sys *System

	l1     *cache.Cache
	thread *workload.Thread

	state procState
	// gen invalidates in-flight asynchronous replies (miss data, TID
	// grants, mark deliveries) whenever the transaction they belong to
	// dies: every abort and freeze increments it.
	gen uint64
	// pending is the cancellable local event (compute burst, hit
	// sequence, restart). Every abort path cancels it, which is what
	// lets the pre-bound advance callbacks below skip the generation
	// guard in-flight bus replies need.
	pending sim.EventRef
	// advanceFn and beginTxFn are the pre-bound local-event callbacks
	// (op completion and inter-tx gap completion): binding them once per
	// processor keeps the per-operation hot path allocation-free.
	advanceFn func()
	beginTxFn func()

	txIdx    int
	opIdx    int
	attempts int // execution attempts of the current transaction

	// fp is the transaction's read- and write-set. Each read line
	// carries the version it had when this transaction first read it
	// (taken from the L1 line on a hit, from the miss reply otherwise);
	// the commit-time validation phase compares those snapshots against
	// the directories' current versions (Scalable TCC's validation).
	fp footprint
	// announced flags the home directories that have received this
	// transaction's eager store-address announcements, listed in
	// announcedDirs (Scalable TCC communicates write addresses during
	// execution; data moves at commit). The announcement is what keeps
	// the directory's "Marked" bit set for the renewal check while the
	// transaction executes.
	announced     []bool
	announcedDirs []int

	tid         tokens.TID
	commitDirs  []int // directories the current commit touches, ascending
	commitsLeft int   // outstanding per-directory commit completions

	// Reused scratch storage for the commit path: the sorted line
	// buffers and the directory-dedup flags would otherwise be
	// reallocated on every transaction.
	commitScratch []mem.LineAddr
	readDirsBuf   []int
	dirFlag       []bool

	// Free lists of pooled asynchronous round trips (miss replies,
	// token round trips, intent announcements). Each op pre-binds its
	// callbacks once at creation and parks here between uses, so the
	// per-transaction hot path schedules bus traffic without allocating
	// closures. Ops are pooled (not single pre-bound callbacks on the
	// processor) because an aborted transaction's reply can still be in
	// flight when the restarted transaction issues its own: each
	// in-flight round trip needs its own captured state.
	missFree   []*missOp
	tokenFree  []*tokenOp
	annFree    []*announceOp
	commitFree []*commitOp
	wakeFree   []*wakeOp

	// homeCmp is the pre-bound (home, line) comparator the commit path
	// sorts the write-set with; binding it once keeps SortFunc from
	// allocating a closure per commit.
	homeCmp func(a, b mem.LineAddr) int

	stats ProcStats
}

// missOp is one pooled miss round trip: the request crossing the bus to
// the home directory, and the reply crossing back. The op captures the
// state the old per-miss closures closed over; gen guards it against the
// requesting transaction dying while the round trip is in flight.
type missOp struct {
	p        *Processor
	dir      *directory.Directory
	line     mem.LineAddr
	gen      uint64
	read     bool
	resident bool
	sendFn   func()
	replyFn  func(version uint64)
}

// getMiss takes a miss op off the free list, or builds one (binding its
// two callbacks exactly once).
func (p *Processor) getMiss() *missOp {
	if n := len(p.missFree); n > 0 {
		m := p.missFree[n-1]
		p.missFree = p.missFree[:n-1]
		return m
	}
	m := &missOp{p: p}
	m.sendFn = func() { m.dir.HandleRead(m.p.id, m.line, m.replyFn) }
	m.replyFn = func(version uint64) { m.p.missReply(m, version) }
	return m
}

// tokenOp is one pooled TID round trip: request to the vendor, the
// vendor's service delay, and the reply carrying the TID back. The
// directory reply always eventually fires, so every op returns to the
// pool exactly once (or is abandoned with the engine at end of run).
type tokenOp struct {
	p         *Processor
	gen       uint64
	tid       tokens.TID
	requestFn func() // bus delivery: request arrives at the vendor
	serviceFn func() // after TokenCycles: acquire the TID, send reply
	replyFn   func() // bus delivery: reply lands at the processor
}

func (p *Processor) getToken() *tokenOp {
	if n := len(p.tokenFree); n > 0 {
		t := p.tokenFree[n-1]
		p.tokenFree = p.tokenFree[:n-1]
		return t
	}
	t := &tokenOp{p: p}
	t.requestFn = func() {
		t.p.sys.eng.ScheduleAfter(t.p.sys.cfg.Machine.TokenCycles, t.serviceFn)
	}
	t.serviceFn = func() {
		// The vendor allocates the TID at its service instant even if
		// the requester dies before the reply lands; tokenReply keeps
		// the vendor's books straight in that case.
		t.tid = t.p.sys.vendor.Acquire(t.p.id)
		t.p.sys.counters.TokenRequests++
		t.p.sys.bus.Send(bus.VendorNode, t.p.id, 0, t.replyFn)
	}
	t.replyFn = func() { t.p.tokenReply(t) }
	return t
}

// announceOp is one pooled eager store-address announcement crossing the
// bus to a home directory.
type announceOp struct {
	p   *Processor
	dir *directory.Directory
	gen uint64
	fn  func()
}

func (p *Processor) getAnnounce() *announceOp {
	if n := len(p.annFree); n > 0 {
		a := p.annFree[n-1]
		p.annFree = p.annFree[:n-1]
		return a
	}
	a := &announceOp{p: p}
	a.fn = func() { a.p.announceDelivered(a) }
	return a
}

// commitOp is one pooled per-directory commit leg: the request crossing
// the bus to the home directory, and the completion callback the
// directory fires when its commit walk finishes. One op is in flight per
// directory the commit touches.
type commitOp struct {
	p      *Processor
	dir    *directory.Directory
	group  []mem.LineAddr
	sendFn func()
	doneFn func()
}

func (p *Processor) getCommitOp() *commitOp {
	if n := len(p.commitFree); n > 0 {
		c := p.commitFree[n-1]
		p.commitFree = p.commitFree[:n-1]
		return c
	}
	c := &commitOp{p: p}
	c.sendFn = func() { c.dir.BeginCommit(c.p.id, c.group, c.doneFn) }
	c.doneFn = func() { c.p.commitDirDone(c) }
	return c
}

// commitDirDone retires one directory's commit leg. The op returns to
// the pool first: completing the last leg starts the next transaction,
// whose own commit is then free to reuse it.
func (p *Processor) commitDirDone(c *commitOp) {
	c.dir = nil
	c.group = nil
	p.commitFree = append(p.commitFree, c)
	p.commitsLeft--
	if p.commitsLeft == 0 {
		p.completeCommit()
	}
}

// wakeOp is one pooled PLL-relock wake-up: the delay between an On
// delivery and the frozen processor's self-abort. Ops carry their own
// generation because wake-ups cannot be cancelled: a processor that is
// re-gated before a stale wake-up fires has a new wake-up in flight next
// to the old one, and only the generation captured at scheduling time
// tells them apart.
type wakeOp struct {
	p   *Processor
	gen uint64
	fn  func()
}

func (p *Processor) getWake() *wakeOp {
	if n := len(p.wakeFree); n > 0 {
		w := p.wakeFree[n-1]
		p.wakeFree = p.wakeFree[:n-1]
		return w
	}
	w := &wakeOp{p: p}
	w.fn = func() { w.p.wakeFired(w) }
	return w
}

func (p *Processor) wakeFired(w *wakeOp) {
	gen := w.gen
	p.wakeFree = append(p.wakeFree, w)
	if p.gen != gen || p.state != stateGated {
		return
	}
	p.stats.SelfAborts++
	p.sys.counters.SelfAborts++
	p.sys.rec.Record(trace.Event{At: p.sys.eng.Now(), Kind: trace.EvSelfAbort,
		Proc: p.id, TxPC: p.currentTx().PC})
	p.abortCurrent(true)
}

func newProcessor(id int, sys *System, l1 *cache.Cache, thread *workload.Thread) *Processor {
	p := &Processor{
		id:        id,
		sys:       sys,
		l1:        l1,
		thread:    thread,
		state:     stateIdle,
		fp:        newFootprint(),
		announced: make([]bool, sys.cfg.Machine.Directories),
		dirFlag:   make([]bool, sys.cfg.Machine.Directories),
	}
	p.advanceFn = func() {
		p.pending = sim.EventRef{}
		p.opIdx++
		p.step()
	}
	p.beginTxFn = func() {
		p.pending = sim.EventRef{}
		p.beginTx()
	}
	geom := sys.geom
	p.homeCmp = func(a, b mem.LineAddr) int {
		ha, hb := geom.HomeDir(a), geom.HomeDir(b)
		if ha != hb {
			return ha - hb
		}
		return cmp.Compare(a, b)
	}
	return p
}

// reset rewires the processor onto a new thread and returns every piece
// of run state to its post-newProcessor value, keeping the allocated
// storage: the footprint table and scratch buffers clear in place,
// the L1 flash-invalidates, and the pooled round-trip free lists survive
// (ops that were in flight when the previous run ended were dropped with
// the engine's events and simply leave the pool smaller). The state is
// assigned directly rather than through setState, matching construction:
// a fresh ledger already has every processor in StateRun at time zero.
func (p *Processor) reset(thread *workload.Thread) {
	p.thread = thread
	p.state = stateIdle
	p.gen = 0
	p.pending = sim.EventRef{}
	p.txIdx = 0
	p.opIdx = 0
	p.attempts = 0
	p.fp.clear()
	clear(p.announced)
	p.announcedDirs = p.announcedDirs[:0]
	p.tid = tokens.TIDNone
	p.commitDirs = p.commitDirs[:0]
	p.commitsLeft = 0
	clear(p.dirFlag)
	p.l1.Reset()
	p.stats = ProcStats{}
}

// ID implements directory.ProcessorPort.
func (p *Processor) ID() int { return p.id }

// State returns the FSM state (for tests).
func (p *Processor) State() string { return p.state.String() }

// Stats returns a copy of the processor's counters.
func (p *Processor) Stats() ProcStats { return p.stats }

// CacheStats returns the L1 counters.
func (p *Processor) CacheStats() cache.Stats { return p.l1.Stats() }

// setState transitions the FSM and the power ledger together.
func (p *Processor) setState(s procState) {
	p.state = s
	p.sys.ledger.Transition(p.id, s.powerState(), p.sys.eng.Now())
}

// cancelPending cancels the outstanding local event, if any.
func (p *Processor) cancelPending() {
	p.pending.Cancel()
	p.pending = sim.EventRef{}
}

// start launches the thread at simulation time zero.
func (p *Processor) start() {
	if len(p.thread.Txs) == 0 {
		p.finishThread()
		return
	}
	p.setState(stateRunTx)
	p.scheduleInterTx()
}

// scheduleInterTx runs the non-transactional gap before the current
// transaction, then begins it.
func (p *Processor) scheduleInterTx() {
	gap := sim.Time(p.thread.InterTx[p.txIdx])
	if gap < 1 {
		gap = 1
	}
	p.pending = p.sys.eng.ScheduleAfter(gap, p.beginTxFn)
}

// beginTx starts (or restarts) the current transaction from its first
// operation with empty speculative state.
func (p *Processor) beginTx() {
	p.opIdx = 0
	p.attempts++
	if p.attempts > p.stats.MaxAttempts {
		p.stats.MaxAttempts = p.attempts
	}
	p.sys.rec.Record(trace.Event{At: p.sys.eng.Now(), Kind: trace.EvTxBegin,
		Proc: p.id, TxPC: p.currentTx().PC})
	p.step()
}

// currentTx returns the transaction being executed.
func (p *Processor) currentTx() *workload.Transaction {
	return &p.thread.Txs[p.txIdx]
}

// step executes operations until one requires waiting (compute burst,
// miss, or transaction end).
func (p *Processor) step() {
	tx := p.currentTx()
	for {
		if p.opIdx >= len(tx.Ops) {
			p.reachCommitPoint()
			return
		}
		op := tx.Ops[p.opIdx]
		switch op.Kind {
		case workload.OpCompute:
			p.pending = p.sys.eng.ScheduleAfter(sim.Time(op.Cycles), p.advanceFn)
			return
		case workload.OpRead, workload.OpWrite:
			write := op.Kind == workload.OpWrite
			hit, inserted := p.accessCache(op.Line, write)
			if write {
				p.fp.addWrite(op.Line)
				p.announceIntent(op.Line)
			} else if e := p.fp.addRead(op.Line); hit && e.flags&fpVersion == 0 {
				// Snapshot the version of the cached data the first
				// time this transaction reads the line.
				e.snapshot(p.l1.Version(op.Line))
			}
			if hit {
				// Hit: pay the L1 latency, continue with the next op.
				p.pending = p.sys.eng.ScheduleAfter(p.sys.cfg.Machine.L1HitCycles, p.advanceFn)
				return
			}
			p.issueMiss(op.Line, !write, inserted)
			return
		default:
			panic(fmt.Sprintf("tcc: processor %d: bad op kind %d", p.id, op.Kind))
		}
	}
}

// accessCache probes the L1 and reports hit/miss. Speculative overflow
// (every way of a set pinned by SM lines) falls back to a non-pinning
// access: the logical write-set still tracks the line, only the cache's
// timing state degrades. Real TCC would serialize the transaction; the
// paper's workloads never overflow a 64 KB L1, but tiny-cache tests do.
func (p *Processor) accessCache(l mem.LineAddr, write bool) (hit, resident bool) {
	res, err := p.l1.Access(l, write)
	if err == nil {
		return res.Hit, true
	}
	p.sys.counters.Overflows++
	res, err = p.l1.Access(l, false)
	if err == nil {
		return res.Hit, true
	}
	// Even the read allocation failed: bypass the cache entirely and
	// charge a miss.
	p.sys.counters.Overflows++
	return false, false
}

// announceIntent sends the eager store-address announcement for a line's
// home directory the first time this transaction writes a line homed
// there. The message rides the bus; a transaction that dies first drops
// the in-flight announcement via the generation guard.
func (p *Processor) announceIntent(l mem.LineAddr) {
	home := p.sys.geom.HomeDir(l)
	if p.announced[home] {
		return
	}
	p.announced[home] = true
	p.announcedDirs = append(p.announcedDirs, home)
	a := p.getAnnounce()
	a.dir, a.gen = p.sys.dirs[home], p.gen
	p.sys.bus.Send(p.id, p.sys.dirNode(home), p.sys.lineBank(l), a.fn)
}

// announceDelivered lands a pooled announcement at its directory. The op
// returns to the pool before the directory runs, so announcement traffic
// the directory triggers can reuse it.
func (p *Processor) announceDelivered(a *announceOp) {
	dir, gen := a.dir, a.gen
	a.dir = nil
	p.annFree = append(p.annFree, a)
	if p.gen != gen {
		return
	}
	dir.AnnounceIntent(p.id)
}

// withdrawIntents clears this transaction's announcements everywhere.
func (p *Processor) withdrawIntents() {
	for _, di := range p.announcedDirs {
		p.sys.dirs[di].WithdrawIntent(p.id)
		p.announced[di] = false
	}
	p.announcedDirs = p.announcedDirs[:0]
}

// issueMiss sends a read request to the line's home directory and stalls.
// The reply carries the commit version of the delivered data: it refreshes
// the resident line's version and, for reads, snapshots the transaction's
// read version.
func (p *Processor) issueMiss(l mem.LineAddr, read, resident bool) {
	p.setState(stateWaitMiss)
	home := p.sys.geom.HomeDir(l)
	m := p.getMiss()
	m.dir = p.sys.dirs[home]
	m.line, m.gen, m.read, m.resident = l, p.gen, read, resident
	p.sys.bus.Send(p.id, p.sys.dirNode(home), p.sys.lineBank(l), m.sendFn)
}

// missReply lands a pooled miss round trip's data back at the processor.
// The op's state is copied out and the op returned to the pool before
// any further work: p.step() below may issue the next miss, which is
// then free to reuse it.
func (p *Processor) missReply(m *missOp, version uint64) {
	l, gen, read, resident := m.line, m.gen, m.read, m.resident
	m.dir = nil
	p.missFree = append(p.missFree, m)
	// The fill lands in the cache whatever the fate of the transaction
	// that requested it.
	if resident {
		p.l1.SetVersion(l, version)
	}
	if p.gen != gen {
		return // transaction died while the miss was in flight
	}
	if read {
		p.fp.add(l).snapshot(version)
	}
	p.setState(stateRunTx)
	p.opIdx++
	p.step()
}

// reachCommitPoint ends the transaction body. Read-only transactions
// commit locally: with nothing to publish, TCC needs no token and no
// directory writes. Writing transactions request a TID.
func (p *Processor) reachCommitPoint() {
	if p.fp.writes == 0 {
		p.stats.ReadOnlyCommits++
		p.completeCommit()
		return
	}
	p.setState(stateWaitTID)
	// Token traffic is pinned to one FIFO on every interconnect shape —
	// bank 0 on the bus models, tile 0's local port on the fabrics, the
	// (0,0) pair on the crossbar (bus.VendorNode selects it): the vendor
	// is one global component, and serializing its round trips preserves
	// the invariant enterCommitQueue depends on — TID replies deliver in
	// acquisition order. Spreading them by requester would let a younger
	// committer's reply overtake an older one's on a less loaded path.
	t := p.getToken()
	t.gen = p.gen
	p.sys.bus.Send(p.id, bus.VendorNode, 0, t.requestFn)
}

// tokenReply lands a pooled token round trip's TID back at the
// processor, or releases it when the requesting transaction died in
// flight. The op returns to the pool first: enterCommitQueue's
// downstream traffic can reuse it.
func (p *Processor) tokenReply(t *tokenOp) {
	gen, tid := t.gen, t.tid
	p.tokenFree = append(p.tokenFree, t)
	if p.gen != gen {
		p.sys.vendor.Release(tid)
		return
	}
	p.tid = tid
	p.enterCommitQueue()
}

// enterCommitQueue places the commit request (the TID-stamped mark) in
// every directory the write-set touches. Marking happens atomically with
// the TID reply: the bus delivers TID replies in acquisition order, so a
// younger committer can never probe a directory before an older
// committer's mark is visible — the property the read-set validation
// probe depends on.
func (p *Processor) enterCommitQueue() {
	p.setState(stateCommitWait)
	p.commitDirs = p.commitDirs[:0]
	for i := range p.fp.len() {
		e := p.fp.entry(i)
		if e.flags&fpWrite == 0 {
			continue
		}
		home := p.sys.geom.HomeDir(e.line)
		if !p.dirFlag[home] {
			p.dirFlag[home] = true
			p.commitDirs = append(p.commitDirs, home)
		}
	}
	for _, di := range p.commitDirs {
		p.dirFlag[di] = false
	}
	sortInts(p.commitDirs)
	for _, di := range p.commitDirs {
		p.sys.dirs[di].Mark(p.id, p.tid)
	}
	p.sys.tryGrant()
}

// readDirs returns the home directories of the read-set, deduplicated,
// in a per-processor scratch buffer valid until the next call. The order
// is unspecified: the only consumer ANDs HasOlderMark over the set, which
// is order-independent.
func (p *Processor) readDirs() []int {
	out := p.readDirsBuf[:0]
	for i := range p.fp.len() {
		e := p.fp.entry(i)
		if e.flags&fpRead == 0 {
			continue
		}
		home := p.sys.geom.HomeDir(e.line)
		if !p.dirFlag[home] {
			p.dirFlag[home] = true
			out = append(out, home)
		}
	}
	for _, di := range out {
		p.dirFlag[di] = false
	}
	p.readDirsBuf = out
	return out
}

// validateReadSet is the Scalable-TCC validation phase, run at the commit
// grant: every line this transaction read must still be at the version it
// was read at. A mismatch means an older transaction committed over the
// read-set while our invalidation was still in flight; the transaction
// aborts instead of committing. A read line without a snapshot validates
// against version 0.
func (p *Processor) validateReadSet() bool {
	for i := range p.fp.len() {
		e := p.fp.entry(i)
		if e.flags&fpRead == 0 {
			continue
		}
		if p.sys.dirs[p.sys.geom.HomeDir(e.line)].Version(e.line) != e.version {
			return false
		}
	}
	return true
}

// grant begins the actual commit: the system has established that this
// processor heads the queue in every directory it needs, that those
// directories are free, and that no older committer is pending in any
// read-set directory. Validation runs first; from there the transaction
// is immune to aborts.
func (p *Processor) grant() {
	if !p.validateReadSet() {
		p.stats.ValidationAborts++
		p.sys.counters.ValidationAborts++
		p.sys.rec.Record(trace.Event{At: p.sys.eng.Now(), Kind: trace.EvValidationAbort,
			Proc: p.id, TxPC: p.currentTx().PC})
		p.abortCurrent(true)
		return
	}
	p.setState(stateCommitting)
	p.commitsLeft = len(p.commitDirs)
	// Partition the write-set per home directory without a map: sorted by
	// (home, line), each directory's lines form one contiguous ascending
	// group of the scratch buffer. The sub-slices stay untouched until
	// every directory's commit walk completes (completeCommit runs only
	// after the last one), so handing them to BeginCommit is safe.
	lines := p.commitScratch[:0]
	for i := range p.fp.len() {
		if e := p.fp.entry(i); e.flags&fpWrite != 0 {
			lines = append(lines, e.line)
		}
	}
	p.commitScratch = lines
	geom := p.sys.geom
	slices.SortFunc(lines, p.homeCmp)
	lo := 0
	for _, di := range p.commitDirs {
		hi := lo
		for hi < len(lines) && geom.HomeDir(lines[hi]) == di {
			hi++
		}
		c := p.getCommitOp()
		c.dir, c.group = p.sys.dirs[di], lines[lo:hi]
		lo = hi
		p.sys.bus.Send(p.id, p.sys.dirNode(di), p.sys.idBank(di), c.sendFn)
	}
}

// completeCommit retires the transaction and moves to the next one.
func (p *Processor) completeCommit() {
	if p.tid != tokens.TIDNone {
		p.sys.vendor.Release(p.tid)
		p.tid = tokens.TIDNone
	}
	// "Abort count field is reset to 0 whenever a thread commits."
	for _, d := range p.sys.dirs {
		d.OnProcessorCommitted(p.id)
	}
	p.sys.rec.Record(trace.Event{At: p.sys.eng.Now(), Kind: trace.EvCommit,
		Proc: p.id, TxPC: p.currentTx().PC})
	p.clearSpec(false)
	p.commitDirs = p.commitDirs[:0]
	p.stats.Commits++
	p.sys.counters.Commits++
	p.attempts = 0
	p.txIdx++
	p.gen++
	if p.txIdx >= len(p.thread.Txs) {
		p.finishThread()
		return
	}
	p.setState(stateRunTx)
	p.scheduleInterTx()
}

func (p *Processor) finishThread() {
	p.setState(stateDone)
	p.sys.threadDone()
}

// clearSpec flash-clears speculative state. abort=true also drops the
// speculatively written lines from the cache.
func (p *Processor) clearSpec(abort bool) {
	p.l1.ClearSpeculative(abort)
	p.fp.clear()
	p.withdrawIntents()
}

// abortCurrent kills the running transaction: release the token, withdraw
// commit intent, discard speculative state, and (unless frozen) restart.
func (p *Processor) abortCurrent(restart bool) {
	p.gen++
	p.cancelPending()
	if p.tid != tokens.TIDNone {
		p.sys.vendor.Release(p.tid)
		p.tid = tokens.TIDNone
	}
	if len(p.commitDirs) > 0 {
		for _, di := range p.commitDirs {
			p.sys.dirs[di].Unmark(p.id)
		}
		p.commitDirs = p.commitDirs[:0]
		// Withdrawing a mark can unblock a younger committer.
		p.sys.scheduleTryGrant()
	}
	p.clearSpec(true)
	if restart {
		p.setState(stateRunTx)
		p.beginTx()
	}
}

// DeliverInvalidation implements directory.ProcessorPort. It returns true
// when the invalidation aborts the running transaction: the paper's abort
// condition is a committed line present in the victim's speculative
// read-set.
func (p *Processor) DeliverInvalidation(line mem.LineAddr, aborter, dir int) bool {
	// Drop the line from the cache regardless of transactional outcome.
	p.l1.Invalidate(line)
	switch p.state {
	case stateCommitting, stateDone, stateIdle:
		// Commit-immune, finished, or not yet started: no abort.
		return false
	case stateGated:
		// Already frozen: the transaction is already doomed and will
		// self-abort on wake-up. A frozen processor cannot take a new
		// abort (and must not be re-gated: its entry in the aborting
		// directory would double-count).
		return false
	}
	if !p.fp.isRead(line) {
		return false // write-only overlap: TCC write-write is not a conflict
	}
	p.stats.Aborts++
	p.abortCurrent(true)
	return true
}

// DeliverStopClock implements directory.ProcessorPort: freeze the clocks.
// A committing processor drops the signal — by the time a StopClock
// chases a processor that has already won the commit race, freezing it
// would stall the directory it occupies; the directory's local OFF view
// reconciles via noteProcessorAlive. Finished processors also drop it.
func (p *Processor) DeliverStopClock(dir int) bool {
	switch p.state {
	case stateCommitting, stateDone:
		return false
	case stateGated:
		return true // already frozen; the freeze stands
	}
	// The freeze kills whatever the processor was doing. Resources are
	// released immediately (the aborted transaction's token and marks
	// die with it); the restart happens at wake-up via self-abort.
	p.abortCurrent(false)
	p.setState(stateGated)
	p.stats.Gatings++
	return true
}

// DeliverOn implements directory.ProcessorPort: restart the clocks. After
// the PLL relock delay the processor self-aborts the transaction it was
// frozen in ("required to maintain the correctness of the program"; not
// tracked by any directory) and re-executes it.
func (p *Processor) DeliverOn(dir int) {
	if p.state != stateGated {
		return // stale On from a directory with an out-of-date view
	}
	w := p.getWake()
	w.gen = p.gen
	p.sys.eng.ScheduleAfter(p.sys.cfg.Gating.WakeupCycles, w.fn)
}

// Gated implements directory.ProcessorPort.
func (p *Processor) Gated() bool { return p.state == stateGated }

// NoteLineCommitted implements directory.ProcessorPort: record the commit
// version assigned to one of our own committed lines, whose data stays
// valid in the L1 after the commit.
func (p *Processor) NoteLineCommitted(l mem.LineAddr, version uint64) {
	p.l1.SetVersion(l, version)
}

// TxInfo implements directory.ProcessorPort: the id of the transaction
// currently executing, or a null reply when gated, idle or finished.
func (p *Processor) TxInfo() (uint64, bool) {
	switch p.state {
	case stateGated, stateDone, stateIdle:
		return 0, false
	}
	return p.currentTx().PC, true
}
