package bus

import "fmt"

// Routing on the point-to-point fabrics. Every link (a tile's local
// port, or a directional channel between adjacent tiles) is a Net link
// with its own pump, so per-link timing is the single bus's. A message
// occupies each link on its route for the occupancy, hop by hop: hop k's
// delivery enqueues hop k+1, so per-hop queueing accrues into
// WaitCycles. The mesh routes XY (column hops, then row hops:
// deadlock-free, hop count the Manhattan distance); the ring routes the
// shorter arc, ties clockwise. Every route ends with the destination
// tile's local port (the ejection hop), so traffic converging on a tile
// serializes in one FIFO, and two messages between the same endpoints
// never reorder. Node ids fold onto tiles modulo the tile count; vendor
// traffic crosses only tile 0's local port. A single-tile fabric
// ("mesh:1x1", "ring:1") is one link, the single bus by construction.

// hopOp carries one multi-hop message across its route: a pooled
// operation whose pre-bound step callback is the delivery function of
// each intermediate hop.
type hopOp struct {
	n       *Net
	path    []int // link indices, reused storage
	idx     int
	deliver func()
	fn      func() // pre-bound step (no per-hop closure)
}

// route appends the directional links of the deterministic route from
// tile s to tile d (s != d) onto path; the caller appends the ejection
// hop. Directional links are numbered after the t local ports. The ring
// has t clockwise links (i -> i+1 is t+i), then t counter-clockwise ones
// (i -> i-1 is 2t+i). The mesh has, in order, the east links
// ((r,c) -> (r,c+1)) and the west links ((r,c+1) -> (r,c)), row-major
// with cols-1 per row, then the south links ((r,c) -> (r+1,c)) and the
// north links ((r+1,c) -> (r,c)), column-major with rows-1 per column.
func (n *Net) route(s, d int, path []int) []int {
	t := n.topo.Nodes
	if n.topo.Kind == TopoRing {
		if (d-s+t)%t <= (s-d+t)%t { // the clockwise arc is no longer
			for i := s; i != d; i = (i + 1) % t {
				path = append(path, t+i)
			}
		} else {
			for i := s; i != d; i = (i - 1 + t) % t {
				path = append(path, 2*t+i)
			}
		}
		return path
	}
	rows, cols := n.topo.Rows, n.topo.Cols
	west := t + rows*(cols-1)
	south := west + rows*(cols-1)
	north := south + cols*(rows-1)
	r, c := s/cols, s%cols
	dr, dc := d/cols, d%cols
	for ; c < dc; c++ {
		path = append(path, t+r*(cols-1)+c)
	}
	for ; c > dc; c-- {
		path = append(path, west+r*(cols-1)+c-1)
	}
	for ; r < dr; r++ {
		path = append(path, south+c*(rows-1)+r)
	}
	for ; r > dr; r-- {
		path = append(path, north+c*(rows-1)+r-1)
	}
	return path
}

// fold maps an endpoint id onto one of nodes tiles or ports.
func fold(id, nodes int) int {
	if id < 0 {
		panic(fmt.Sprintf("bus: node %d (only VendorNode may be negative)", id))
	}
	return id % nodes
}

// sendRouted sends along the deterministic src->dst route. Vendor
// traffic (either end is VendorNode) crosses exactly tile 0's local
// port; same-tile traffic crosses just the tile's local port.
func (n *Net) sendRouted(src, dst int, deliver func()) {
	if src == VendorNode || dst == VendorNode {
		n.send(0, deliver)
		return
	}
	s, d := fold(src, n.topo.Nodes), fold(dst, n.topo.Nodes)
	if s == d {
		n.send(d, deliver)
		return
	}
	op := n.getHop()
	op.path = n.route(s, d, op.path[:0])
	op.path = append(op.path, d) // ejection: dst's local port
	op.idx = 0
	op.deliver = deliver
	n.send(op.path[0], op.fn)
}

// step advances a multi-hop message: each hop's delivery enqueues the
// next link, and the final (ejection) hop runs the caller's deliver and
// recycles the operation.
func (op *hopOp) step() {
	op.idx++
	if op.idx < len(op.path) {
		op.n.send(op.path[op.idx], op.fn)
		return
	}
	d := op.deliver
	op.deliver = nil
	op.n.free = append(op.n.free, op)
	d()
}

func (n *Net) getHop() *hopOp {
	if k := len(n.free); k > 0 {
		op := n.free[k-1]
		n.free = n.free[:k-1]
		return op
	}
	op := &hopOp{n: n}
	op.fn = op.step
	return op
}
