package bus

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

func TestParseTopology(t *testing.T) {
	for _, tc := range []struct {
		spec  string
		procs int
		want  string // canonical form, or "" for a parse error
	}{
		{"", 8, "bus"},
		{"bus", 8, "bus"},
		{"xbar", 8, "xbar:8"},
		{"xbar:4", 128, "xbar:4"},
		{"ring", 16, "ring:16"},
		{"ring:1", 8, "ring:1"},
		{"mesh", 16, "mesh:4x4"},
		{"mesh", 8, "mesh:2x4"},
		{"mesh", 7, "mesh:1x7"}, // prime: degenerates to a row
		{"mesh", 128, "mesh:8x16"},
		{"mesh:1x1", 8, "mesh:1x1"},
		{"mesh:2x3", 8, "mesh:2x3"},
		{"bus:4", 8, ""},
		{"mesh:0x4", 8, ""},
		{"mesh:4", 8, ""},
		{"ring:0", 8, ""},
		{"ring:x", 8, ""},
		{"torus", 8, ""},
	} {
		topo, err := ParseTopology(tc.spec, tc.procs)
		if tc.want == "" {
			if err == nil {
				t.Errorf("ParseTopology(%q, %d) = %+v, want error", tc.spec, tc.procs, topo)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseTopology(%q, %d): %v", tc.spec, tc.procs, err)
			continue
		}
		if got := topo.String(); got != tc.want {
			t.Errorf("ParseTopology(%q, %d) = %q, want %q", tc.spec, tc.procs, got, tc.want)
		}
		// The canonical form is a fixed point: re-parsing it under any
		// processor count yields the same topology (checkpoint keys
		// depend on this stability).
		again, err := ParseTopology(topo.String(), 1)
		if err != nil || again != topo {
			t.Errorf("canonical %q did not round-trip: %+v / %v", topo.String(), again, err)
		}
	}
}

func TestValidateTopology(t *testing.T) {
	for _, tc := range []struct {
		spec        string
		banks       int
		wantInvalid bool
	}{
		{"", 0, false},
		{"", 4, false},
		{"bus", 8, false},
		{"mesh", 0, false},
		{"mesh", 4, true}, // fabrics don't compose with the Banks axis
		{"xbar", 1, true},
		{"torus", 0, true},
	} {
		err := ValidateTopology(tc.spec, tc.banks, 8)
		if (err != nil) != tc.wantInvalid {
			t.Errorf("ValidateTopology(%q, banks=%d) = %v, wantInvalid=%v", tc.spec, tc.banks, err, tc.wantInvalid)
		}
	}
}

// TestMeshRouteXY pins dimension-order routing on a 3x4 mesh: column hops
// first, then row hops, every link a real adjacency, hop count the
// Manhattan distance.
func TestMeshRouteXY(t *testing.T) {
	topo, err := ParseTopology("mesh:3x4", 12)
	if err != nil {
		t.Fatal(err)
	}
	f := newFabric(sim.NewEngine(), 2, topo)
	for s := 0; s < topo.Nodes; s++ {
		for d := 0; d < topo.Nodes; d++ {
			if s == d {
				continue
			}
			path := f.route(s, d, nil)
			manhattan := abs(s/topo.Cols-d/topo.Cols) + abs(s%topo.Cols-d%topo.Cols)
			if len(path) != manhattan {
				t.Fatalf("route %d->%d has %d hops, want Manhattan %d", s, d, len(path), manhattan)
			}
			at := s
			sawRowHop := false
			for _, link := range path {
				from, to := f.linkEnds(link)
				if from == to {
					t.Fatalf("route %d->%d crosses local port %d mid-route", s, d, from)
				}
				if from != at {
					t.Fatalf("route %d->%d: link %d starts at %d, cursor at %d", s, d, link, from, at)
				}
				if from/topo.Cols != to/topo.Cols { // row changed: a Y hop
					sawRowHop = true
				} else if sawRowHop {
					t.Fatalf("route %d->%d hops X after Y (not dimension-ordered)", s, d)
				}
				at = to
			}
			if at != d {
				t.Fatalf("route %d->%d ends at %d", s, d, at)
			}
		}
	}
}

// TestRingRouteShorterArc pins the ring's direction choice: the shorter
// arc wins, ties go clockwise.
func TestRingRouteShorterArc(t *testing.T) {
	topo, err := ParseTopology("ring:6", 6)
	if err != nil {
		t.Fatal(err)
	}
	f := newFabric(sim.NewEngine(), 2, topo)
	for s := 0; s < 6; s++ {
		for d := 0; d < 6; d++ {
			if s == d {
				continue
			}
			path := f.route(s, d, nil)
			cw := (d - s + 6) % 6
			ccw := (s - d + 6) % 6
			wantHops := cw
			if ccw < cw {
				wantHops = ccw
			}
			if len(path) != wantHops {
				t.Fatalf("route %d->%d has %d hops, want %d", s, d, len(path), wantHops)
			}
			at := s
			for _, link := range path {
				from, to := f.linkEnds(link)
				if from != at {
					t.Fatalf("route %d->%d: link starts at %d, cursor at %d", s, d, from, at)
				}
				at = to
			}
			if at != d {
				t.Fatalf("route %d->%d ends at %d", s, d, at)
			}
			if cw <= ccw { // tie or shorter: must be the clockwise arc
				if from, to := f.linkEnds(path[0]); (from+1)%6 != to {
					t.Fatalf("route %d->%d (cw %d, ccw %d) did not go clockwise", s, d, cw, ccw)
				}
			}
		}
	}
}

// TestFabricHopTiming pins the per-hop occupancy model: on an otherwise
// idle 1x4 mesh, a 3-column crossing plus the ejection port costs 4 hops
// of occupancy, and each link charges one crossing.
func TestFabricHopTiming(t *testing.T) {
	topo, err := ParseTopology("mesh:1x4", 4)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	f := newFabric(eng, 5, topo)
	var delivered sim.Time = -1
	f.Send(0, 3, 0, func() { delivered = eng.Now() })
	eng.Run()
	if delivered != 4*5 {
		t.Fatalf("delivered at %d, want 20 (3 east hops + ejection, occupancy 5)", delivered)
	}
	st := f.Stats()
	if st.Messages != 4 || st.BusyCycles != 20 || st.WaitCycles != 0 {
		t.Fatalf("stats %+v, want 4 crossings, 20 busy, 0 wait", st)
	}
}

// TestFabricSameRouteFIFO pins the ordering contract the directory relies
// on: two messages between the same endpoints follow the same route and
// must deliver in send order, with per-hop queueing accruing wait cycles.
func TestFabricSameRouteFIFO(t *testing.T) {
	for _, spec := range []string{"mesh:2x4", "ring:8"} {
		topo, err := ParseTopology(spec, 8)
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.NewEngine()
		f := newFabric(eng, 3, topo)
		var order []int
		for i := 0; i < 5; i++ {
			i := i
			f.Send(1, 6, 0, func() { order = append(order, i) })
		}
		eng.Run()
		if fmt.Sprint(order) != "[0 1 2 3 4]" {
			t.Fatalf("%s: same-route delivery order %v, want FIFO", spec, order)
		}
		if st := f.Stats(); st.WaitCycles == 0 {
			t.Fatalf("%s: five same-route messages accrued no wait", spec)
		}
	}
}

// TestFabricVendorSideband pins the token-ordering prerequisite: all
// vendor traffic, from any tile, crosses exactly tile 0's local port —
// one FIFO — so replies issued in acquisition order deliver in that
// order on every geometry.
func TestFabricVendorSideband(t *testing.T) {
	topo, err := ParseTopology("mesh:2x4", 8)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	f := newFabric(eng, 2, topo)
	var order []int
	f.Send(7, VendorNode, 0, func() { order = append(order, 7) })
	f.Send(VendorNode, 3, 0, func() { order = append(order, 3) })
	f.Send(0, VendorNode, 0, func() { order = append(order, 0) })
	eng.Run()
	if fmt.Sprint(order) != "[7 3 0]" {
		t.Fatalf("vendor traffic order %v, want FIFO through one port", order)
	}
	bs := f.BankStats()
	if bs[0].Messages != 3 {
		t.Fatalf("tile 0 local port carried %d messages, want all 3", bs[0].Messages)
	}
	for i, s := range bs[1:] {
		if s.Messages != 0 {
			t.Fatalf("link %d carried vendor traffic (%d messages)", i+1, s.Messages)
		}
	}
}

// TestSingleTileFabricMatchesSingleBus is the bus-level form of the
// degenerate-topology golden: a 1x1 mesh and a 1-node ring have exactly
// one link, and a randomized schedule of sends (local and vendor) must
// deliver at exactly the cycles the single bus delivers them, message for
// message, with identical stats. Both are one Net link on one pump, so
// this pins the degenerate route: every message, vendor traffic
// included, onto local port 0.
func TestSingleTileFabricMatchesSingleBus(t *testing.T) {
	for _, spec := range []string{"mesh:1x1", "ring:1"} {
		topo, err := ParseTopology(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 5; seed++ {
			single := sim.NewEngine()
			fabric := sim.NewEngine()
			var a Interconnect = newBus(single, 3)
			var b Interconnect = newFabric(fabric, 3, topo)
			var got, want []string
			schedule := func(eng *sim.Engine, ic Interconnect, out *[]string) {
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < 200; i++ {
					i := i
					at := sim.Time(rng.Intn(300))
					src, dst := 0, 0
					switch rng.Intn(3) {
					case 1:
						src = VendorNode
					case 2:
						dst = VendorNode
					}
					eng.Schedule(at, func() {
						ic.Send(src, dst, 0, func() {
							*out = append(*out, fmt.Sprintf("msg%d@%d", i, eng.Now()))
						})
					})
				}
			}
			schedule(single, a, &want)
			schedule(fabric, b, &got)
			single.Run()
			fabric.Run()
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s seed %d: diverged from single bus:\nsingle: %v\nfabric: %v", spec, seed, want, got)
			}
			if a.Stats() != b.Stats() {
				t.Fatalf("%s seed %d: stats diverged: single %+v fabric %+v", spec, seed, a.Stats(), b.Stats())
			}
			if len(b.BankStats()) != 1 {
				t.Fatalf("%s: %d links, want 1", spec, len(b.BankStats()))
			}
		}
	}
}

// TestXbarPairContention pins the crossbar's contention model: messages
// on the same src->dst pair serialize in FIFO slots; messages on any
// other pair — even sharing a port — cross in parallel.
func TestXbarPairContention(t *testing.T) {
	eng := sim.NewEngine()
	x := newXbar(eng, 4, 4)
	times := map[string]sim.Time{}
	x.Send(0, 1, 0, func() { times["a"] = eng.Now() })
	x.Send(0, 1, 0, func() { times["b"] = eng.Now() }) // same pair: queues
	x.Send(0, 2, 0, func() { times["c"] = eng.Now() }) // same src, other dst: parallel
	x.Send(3, 1, 0, func() { times["d"] = eng.Now() }) // other src, same dst: parallel
	eng.Run()
	if times["a"] != 4 || times["c"] != 4 || times["d"] != 4 {
		t.Fatalf("uncontended crossings at a=%d c=%d d=%d, want all 4", times["a"], times["c"], times["d"])
	}
	if times["b"] != 8 {
		t.Fatalf("same-pair crossing at %d, want 8 (slot after the first)", times["b"])
	}
	st := x.Stats()
	if st.Messages != 4 || st.WaitCycles != 4 || st.BusyCycles != 16 {
		t.Fatalf("stats %+v, want 4 messages, 4 wait, 16 busy", st)
	}
	bs := x.BankStats()
	if bs[0].Messages != 3 || bs[3].Messages != 1 {
		t.Fatalf("per-port stats %+v, want 3 on port 0 and 1 on port 3", bs)
	}
}

// TestXbarVendorSerializes pins the crossbar's vendor sideband: all
// vendor traffic reserves the (0,0) pair, one FIFO, any source port.
func TestXbarVendorSerializes(t *testing.T) {
	eng := sim.NewEngine()
	x := newXbar(eng, 4, 4)
	var order []int
	x.Send(3, VendorNode, 0, func() { order = append(order, 3) })
	x.Send(VendorNode, 2, 0, func() { order = append(order, 2) })
	x.Send(1, VendorNode, 0, func() { order = append(order, 1) })
	eng.Run()
	if fmt.Sprint(order) != "[3 2 1]" {
		t.Fatalf("vendor traffic order %v, want FIFO through the (0,0) pair", order)
	}
	if st := x.Stats(); st.WaitCycles != 4+8 {
		t.Fatalf("vendor traffic wait %d, want 12 (slots at 0, 4, 8)", st.WaitCycles)
	}
}

// TestFabricXbarReset pins the Reset contract for the new models: after a
// run and a Reset (with the engine reset alongside), queues are empty,
// counters zeroed, and a rerun of the same schedule delivers at the same
// cycles.
func TestFabricXbarReset(t *testing.T) {
	topo, err := ParseTopology("mesh:2x2", 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, build := range map[string]func(*sim.Engine) Interconnect{
		"mesh": func(e *sim.Engine) Interconnect { return newFabric(e, 3, topo) },
		"xbar": func(e *sim.Engine) Interconnect { return newXbar(e, 3, 4) },
	} {
		eng := sim.NewEngine()
		ic := build(eng)
		run := func() (last sim.Time, st Stats) {
			for i := 0; i < 8; i++ {
				ic.Send(i%4, (i+1)%4, 0, func() { last = eng.Now() })
			}
			eng.Run()
			return last, ic.Stats()
		}
		last1, st1 := run()
		eng.Reset()
		ic.Reset()
		if n, ok := ic.(*Net); ok && n.queued() != 0 {
			t.Fatalf("%s: %d messages or pumps pending after reset", name, n.queued())
		}
		if x, ok := ic.(*Xbar); ok {
			for pair, at := range x.nextFree {
				if at != 0 {
					t.Fatalf("%s: pair %d reserved until %d after reset", name, pair, at)
				}
			}
		}
		if st := ic.Stats(); st != (Stats{}) {
			t.Fatalf("%s: stats %+v after reset, want zero", name, st)
		}
		last2, st2 := run()
		if last1 != last2 || st1 != st2 {
			t.Fatalf("%s: rerun after reset diverged: %d/%+v vs %d/%+v", name, last1, st1, last2, st2)
		}
	}
}

// FuzzMeshRoute fuzzes the XY router over arbitrary geometries and
// endpoint pairs: the route must follow real adjacencies from src to dst,
// X strictly before Y, with hop count exactly the Manhattan distance.
func FuzzMeshRoute(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint16(0), uint16(15))
	f.Add(uint8(1), uint8(1), uint16(0), uint16(0))
	f.Add(uint8(8), uint8(16), uint16(127), uint16(3))
	f.Add(uint8(3), uint8(5), uint16(14), uint16(14))
	f.Fuzz(func(t *testing.T, rowsRaw, colsRaw uint8, srcRaw, dstRaw uint16) {
		rows := int(rowsRaw)%16 + 1
		cols := int(colsRaw)%16 + 1
		n := rows * cols
		src := int(srcRaw) % n
		dst := int(dstRaw) % n
		fb := newFabric(sim.NewEngine(), 1, Topology{Kind: TopoMesh, Nodes: n, Rows: rows, Cols: cols})
		if src == dst {
			return
		}
		path := fb.route(src, dst, nil)
		manhattan := abs(src/cols-dst/cols) + abs(src%cols-dst%cols)
		if len(path) != manhattan {
			t.Fatalf("mesh %dx%d route %d->%d: %d hops, want Manhattan %d", rows, cols, src, dst, len(path), manhattan)
		}
		at := src
		sawRowHop := false
		for _, link := range path {
			if link < n || link >= len(fb.links) {
				t.Fatalf("mesh %dx%d route %d->%d uses link %d outside the directional range [%d,%d)",
					rows, cols, src, dst, link, n, len(fb.links))
			}
			from, to := fb.linkEnds(link)
			if from != at {
				t.Fatalf("mesh %dx%d route %d->%d: link %d starts at %d, cursor at %d", rows, cols, src, dst, link, from, at)
			}
			dr := abs(from/cols - to/cols)
			dc := abs(from%cols - to%cols)
			if dr+dc != 1 {
				t.Fatalf("mesh %dx%d route %d->%d: link %d is not an adjacency (%d->%d)", rows, cols, src, dst, link, from, to)
			}
			if dr == 1 {
				sawRowHop = true
			} else if sawRowHop {
				t.Fatalf("mesh %dx%d route %d->%d hops X after Y", rows, cols, src, dst)
			}
			at = to
		}
		if at != dst {
			t.Fatalf("mesh %dx%d route %d->%d ends at %d", rows, cols, src, dst, at)
		}
	})
}

// linkEnds decodes a fabric link index back to its (from, to) tiles; a
// local port decodes to (tile, tile). It inverts the link numbering from
// the geometry alone, without the router's index helpers, so the route
// tests check routes against real adjacencies independently.
func (n *Net) linkEnds(idx int) (from, to int) {
	t := n.topo.Nodes
	if idx < t {
		return idx, idx
	}
	if n.topo.Kind == TopoRing {
		if idx < 2*t {
			i := idx - t
			return i, (i + 1) % t
		}
		i := idx - 2*t
		return i, (i - 1 + t) % t
	}
	rows, cols := n.topo.Rows, n.topo.Cols
	idx -= t
	if idx < rows*(cols-1) { // east
		r, c := idx/(cols-1), idx%(cols-1)
		return r*cols + c, r*cols + c + 1
	}
	idx -= rows * (cols - 1)
	if idx < rows*(cols-1) { // west
		r, c := idx/(cols-1), idx%(cols-1)
		return r*cols + c + 1, r*cols + c
	}
	idx -= rows * (cols - 1)
	if idx < cols*(rows-1) { // south
		c, r := idx/(rows-1), idx%(rows-1)
		return r*cols + c, (r+1)*cols + c
	}
	idx -= cols * (rows - 1)
	c, r := idx/(rows-1), idx%(rows-1) // north
	return (r+1)*cols + c, r*cols + c
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
