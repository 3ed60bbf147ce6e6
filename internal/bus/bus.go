// Package bus models the interconnect of the simulated machine. Two
// implementations of one Interconnect interface exist:
//
//   - Net, a set of split-transaction links plus a route onto them. One
//     link is the paper's common bus (Table II); N links, picked by the
//     message's bank, are the address-interleaved banked bus; a 2D mesh
//     (XY routing) or a bidirectional ring (shorter arc) is one local
//     port per tile plus one link per directed channel, crossed hop by
//     hop (route.go). A split-transaction link is held only for the
//     cycles a message occupies its wires, not for the memory round-trip.
//   - Xbar (xbar.go), a full crossbar: one reservation ledger per
//     src→dst port pair, so the only contention is two messages between
//     the same pair of nodes.
//
// On a link, senders do not schedule per-request events: they enqueue
// on the link's arbitration queue, and one grant-round event, scheduled
// for the cycle the wires next free up, drains every queued requester in
// arrival order, assigning each the next `occupancy`-cycle slot. That is
// the slot arithmetic of a per-request reservation model (each message
// occupies the earliest free slot at or after its issue time), at one
// event per round instead of per message.
package bus

import (
	"fmt"

	"repro/internal/fifo"
	"repro/internal/sim"
)

// VendorNode is the node id of the token vendor, which sits beside tile 0
// rather than on its own port: on every topology, traffic to or from the
// vendor crosses exactly one resource — tile 0's local port (the single
// bus on "bus"). Serializing all token traffic through one FIFO is what
// keeps TID replies delivering in acquisition order on every shape (the
// commit-ordering invariant the processors rely on).
const VendorNode = -1

// Interconnect is the system's view of the interconnect. Send transmits a
// message from node src to node dst on the given bank; deliver runs when
// the message has crossed the wires. The bus shapes route by bank and
// ignore src/dst; point-to-point fabrics route by src/dst and ignore
// bank. All methods must be called from engine event context (the
// simulator is single-goroutine by design).
type Interconnect interface {
	// Send enqueues a message from src to dst; deliver runs when the
	// message has crossed. The bus shapes use only bank (their link
	// index; a bank outside [0, Banks()) panics); fabrics use only src
	// and dst (node ids, taken modulo their tile count, or VendorNode).
	Send(src, dst, bank int, deliver func())
	// Banks returns the number of independent banks (1 for the single
	// bus and the point-to-point fabrics).
	Banks() int
	// Stats returns the activity counters, aggregated over resources.
	Stats() Stats
	// BankStats returns a copy of each resource's private counters:
	// banks for the bus shapes, links for the fabrics, source ports for
	// the crossbar; one entry equal to Stats() for the single bus.
	BankStats() []Stats
	// Reset returns the interconnect to its initial state — empty
	// queues, free wires, zeroed counters — keeping allocated storage.
	// The owning engine must be reset first (or alongside): pending
	// grant/delivery events are assumed already discarded.
	Reset()
}

// BankOf maps an interleave key onto a bank. Lines interleave by line
// address; control messages with no address (token round trips, gating
// commands) interleave by the sending component's id. banks must be a
// power of two — the bank is the key's low lg(banks) bits — and with one
// bank every key maps to bank 0. A non-power-of-two count panics: the
// mask would silently skip banks (banks=3 masks with 2, so every key
// lands on bank 0 or 2 and bank 1 never carries traffic). Config
// validation is the single enforcement point; this panic is the backstop
// for callers that bypass it.
func BankOf(key uint64, banks int) int {
	if banks <= 1 {
		return 0
	}
	if banks&(banks-1) != 0 {
		panic(fmt.Sprintf("bus: BankOf banks %d must be a power of two", banks))
	}
	return int(key & uint64(banks-1))
}

// Stats counts interconnect activity on one resource, or summed over
// all of them.
type Stats struct {
	Messages   uint64
	BusyCycles uint64
	// WaitCycles accumulates queueing delay (time between issue and the
	// start of the granted slot) across all messages.
	WaitCycles uint64
	// Rounds counts batched grant rounds: one arbitration event may
	// grant many queued messages. Messages/Rounds is the batching factor.
	Rounds uint64
}

func (s *Stats) add(o Stats) {
	s.Messages += o.Messages
	s.BusyCycles += o.BusyCycles
	s.WaitCycles += o.WaitCycles
	s.Rounds += o.Rounds
}

// request is one queued send awaiting a grant round.
type request struct {
	deliver func()
	issued  sim.Time
}

// delivery is one granted message awaiting its slot end.
type delivery struct {
	at      sim.Time
	deliver func()
}

// NewInterconnect builds the interconnect of a machine of nodes
// processors. occupancy is the per-message hold time of one link's (or
// crossbar pair's) wires and must be positive. An empty or "bus"
// topology selects by banks: banks <= 0 is the paper's single bus, one
// link; banks >= 1 is the banked bus, one link per bank (a power of
// two), so Banks=1 builds the single bus's link and pump. The
// point-to-point topologies (see ParseTopology) ignore banks; validation
// rejects the combination upstream. An unparseable topology panics:
// config validation is the enforcement point and this is the backstop.
func NewInterconnect(eng *sim.Engine, occupancy sim.Time, banks, nodes int, topology string) Interconnect {
	topo, err := ParseTopology(topology, nodes)
	if err != nil {
		panic(err.Error())
	}
	if occupancy <= 0 {
		panic(fmt.Sprintf("bus: occupancy %d must be positive", occupancy))
	}
	if topo.Kind == TopoXbar {
		return newXbar(eng, occupancy, topo.Nodes)
	}
	return newNet(eng, occupancy, banks, topo)
}

// Net is a set of split-transaction links, a route onto them, and the
// delivery pumps that complete their crossings. A pump is one in-flight
// event serving the earliest due slot end across its group of links.
// The banked bus's banks share one pump: one firing serves every
// delivery due that cycle, visiting the banks round-robin from a start
// bank that rotates by one per firing, so no bank keeps a same-cycle
// priority and the order is a pure function of simulation history.
// Every other link has its own pump, which is a chained delivery event
// walking the link's strictly increasing slot ends. One bank on one
// pump is the single bus, event for event.
type Net struct {
	eng       *sim.Engine
	occupancy sim.Time
	topo      Topology
	routed    bool // mesh or ring: Send routes by endpoint, not bank
	links     []link
	pumps     []pump
	due       []delivery // pump scratch: crossings due this cycle
	free      []*hopOp   // recycled multi-hop operations
}

// link is one set of wires: arbitration queue, slot ledger, delivery
// queue and counters.
type link struct {
	nextFree     sim.Time
	reqs         fifo.Queue[request]  // awaiting arbitration
	dels         fifo.Queue[delivery] // granted, awaiting delivery
	roundPending bool
	roundFn      func() // pre-bound grant round (no per-schedule closure)
	pump         *pump
	stats        Stats
}

// pump is the delivery event of a power-of-two run of links.
type pump struct {
	links   []link
	pending bool
	at      sim.Time
	ref     sim.EventRef
	fn      func() // pre-bound firing
	rr      int    // rotating start link for same-cycle service
}

// newNet builds the links and pumps of a parsed bus, mesh or ring.
func newNet(eng *sim.Engine, occupancy sim.Time, banks int, topo Topology) *Net {
	n := &Net{eng: eng, occupancy: occupancy, topo: topo, routed: topo.Kind != TopoBus}
	links := 1
	switch {
	case topo.Kind == TopoMesh:
		// Local ports, east/west channels per row, south/north per column.
		links = topo.Nodes + 2*topo.Rows*(topo.Cols-1) + 2*topo.Cols*(topo.Rows-1)
	case topo.Kind == TopoRing && topo.Nodes > 1:
		// Local ports, then clockwise and counter-clockwise channels.
		links = 3 * topo.Nodes
	case topo.Kind == TopoBus && banks > 0:
		if banks&(banks-1) != 0 {
			panic(fmt.Sprintf("bus: banks %d must be a positive power of two", banks))
		}
		links = banks
	}
	group := links // links per pump: all of them on the bus shapes
	if n.routed {
		group = 1
	}
	n.links = make([]link, links)
	n.pumps = make([]pump, links/group)
	for i := range n.pumps {
		p := &n.pumps[i]
		p.links = n.links[i*group : (i+1)*group]
		p.fn = func() { n.firePump(p) }
		for j := range p.links {
			l := &p.links[j]
			l.pump = p
			l.roundFn = func() { n.grantRound(l) }
		}
	}
	return n
}

// Reset implements Interconnect: every link's queues empty, wires free
// and stats zeroed; every pump disarmed with its cursor rewound. Queue
// storage, the pre-bound callbacks and the hop-operation free list are
// kept; in-flight hop operations are abandoned with the engine's events.
func (n *Net) Reset() {
	for i := range n.links {
		l := &n.links[i]
		l.reqs.Clear()
		l.dels.Clear()
		*l = link{reqs: l.reqs, dels: l.dels, roundFn: l.roundFn, pump: l.pump}
	}
	for i := range n.pumps {
		p := &n.pumps[i]
		*p = pump{links: p.links, fn: p.fn}
	}
	n.due = n.due[:0]
}

// Banks implements Interconnect: the bus shapes have one bank per link;
// the fabrics have no address interleave, so every interleave key maps
// to bank 0 and the bank argument is inert.
func (n *Net) Banks() int {
	if n.routed {
		return 1
	}
	return len(n.links)
}

// Stats returns the activity counters aggregated over links. On a
// fabric Messages counts link crossings: a message on an h-hop route
// counts h times, once per link it occupies.
func (n *Net) Stats() Stats {
	var s Stats
	for i := range n.links {
		s.add(n.links[i].stats)
	}
	return s
}

// BankStats returns a copy of each link's private counters: banks in
// order on the bus shapes; on a fabric, local ports first (one per
// tile), then the directional channels.
func (n *Net) BankStats() []Stats {
	out := make([]Stats, len(n.links))
	for i := range n.links {
		out[i] = n.links[i].stats
	}
	return out
}

// Send implements Interconnect. On the bus shapes the message joins
// bank's arbitration queue and is granted a slot on that link's wires by
// its next grant round, in FIFO order; src and dst are ignored. On a
// fabric it crosses every link of its route (see route), then delivers;
// the bank is ignored.
func (n *Net) Send(src, dst, bank int, deliver func()) {
	if deliver == nil {
		panic("bus: nil deliver callback")
	}
	if n.routed {
		n.sendRouted(src, dst, deliver)
		return
	}
	if bank < 0 || bank >= len(n.links) {
		panic(fmt.Sprintf("bus: bank %d out of range [0,%d)", bank, len(n.links)))
	}
	n.send(bank, deliver)
}

// send enqueues a message on one link and arms a grant round at the
// cycle the link's wires next free up.
func (n *Net) send(li int, deliver func()) {
	l := &n.links[li]
	l.stats.Messages++
	l.reqs.Push(request{deliver: deliver, issued: n.eng.Now()})
	if !l.roundPending {
		l.roundPending = true
		n.eng.Schedule(max(n.eng.Now(), l.nextFree), l.roundFn)
	}
}

// grantRound is one link's batched arbitration: it fires when the
// link's wires free up and drains the whole request queue in arrival
// order, assigning each message the next occupancy-cycle slot.
func (n *Net) grantRound(l *link) {
	l.roundPending = false
	l.stats.Rounds++
	start := max(n.eng.Now(), l.nextFree)
	for l.reqs.Len() > 0 {
		r := l.reqs.Pop()
		l.stats.WaitCycles += uint64(start - r.issued)
		l.stats.BusyCycles += uint64(n.occupancy)
		end := start + n.occupancy
		l.dels.Push(delivery{at: end, deliver: r.deliver})
		start = end
	}
	l.nextFree = start
	n.schedulePump(l.pump)
}

// schedulePump (re-)arms a pump for the earliest due slot end across its
// links. Within a link slot ends are strictly increasing, but a grant
// round on an idle link of a shared pump can create a delivery earlier
// than the pump's current target, so an armed pump is pulled forward
// when needed. A one-link pump is never pulled forward.
func (n *Net) schedulePump(p *pump) {
	earliest := sim.MaxTime
	for i := range p.links {
		if l := &p.links[i]; l.dels.Len() > 0 && l.dels.Front().at < earliest {
			earliest = l.dels.Front().at
		}
	}
	if earliest == sim.MaxTime {
		return
	}
	if p.pending {
		if earliest >= p.at {
			return
		}
		p.ref.Cancel()
	}
	p.pending, p.at = true, earliest
	p.ref = n.eng.Schedule(earliest, p.fn)
}

// firePump completes every crossing due this cycle on the pump's links,
// visiting them round-robin from a start link that rotates by one per
// firing, then re-arms for the next due slot end. The pump re-arms
// before any callback runs, so a callback that sends new traffic
// observes consistent queues; new sends can never create a same-cycle
// delivery, because a slot granted now ends at least one occupancy
// later. Pumps fire only from engine events, so the shared due scratch
// is never in use twice.
func (n *Net) firePump(p *pump) {
	p.pending = false
	if len(p.links) == 1 { // slot ends strictly increase: exactly one is due
		d := p.links[0].dels.Pop()
		n.schedulePump(p)
		d.deliver()
		return
	}
	now, due, k := n.eng.Now(), n.due[:0], len(p.links)
	start := p.rr
	p.rr = (p.rr + 1) & (k - 1)
	for i := 0; i < k; i++ {
		l := &p.links[(start+i)&(k-1)]
		for l.dels.Len() > 0 && l.dels.Front().at == now {
			due = append(due, l.dels.Pop())
		}
	}
	n.schedulePump(p)
	for i := range due {
		due[i].deliver()
		due[i].deliver = nil // release the closure for GC
	}
	n.due = due[:0]
}
