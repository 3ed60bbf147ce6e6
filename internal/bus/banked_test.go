package bus

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

func TestBankedMessagesCrossInParallel(t *testing.T) {
	eng := sim.NewEngine()
	b := newBanked(eng, 4, 4)
	times := map[int]sim.Time{}
	// One message per bank, all issued in the same cycle: no queueing
	// anywhere, every crossing completes at t=4.
	for bank := 0; bank < 4; bank++ {
		bank := bank
		b.Send(0, 0, bank, func() { times[bank] = eng.Now() })
	}
	eng.Run()
	for bank, at := range times {
		if at != 4 {
			t.Errorf("bank %d delivered at %d, want 4 (banks must not serialize)", bank, at)
		}
	}
	if st := b.Stats(); st.Messages != 4 || st.WaitCycles != 0 {
		t.Errorf("stats %+v, want 4 messages with zero wait", st)
	}
}

func TestBankedPerBankFIFOAndSerialization(t *testing.T) {
	eng := sim.NewEngine()
	b := newBanked(eng, 10, 2)
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		b.Send(0, 0, 0, func() { order = append(order, i) })
	}
	eng.Run()
	if fmt.Sprint(order) != "[0 1 2]" {
		t.Fatalf("bank 0 delivery order %v, want FIFO", order)
	}
	// Three messages on one bank serialize exactly like the single bus:
	// queueing delays 0 + 10 + 20.
	if st := b.Stats(); st.WaitCycles != 30 || st.BusyCycles != 30 {
		t.Fatalf("stats %+v, want 30 wait / 30 busy", st)
	}
	// The other bank stayed idle.
	if bs := b.BankStats(); bs[1].Messages != 0 {
		t.Fatalf("idle bank counted %d messages", bs[1].Messages)
	}
}

func TestBankedSameCycleCrossBankOrderRotates(t *testing.T) {
	// Two rounds of same-cycle deliveries on banks 0 and 1. The pump's
	// rotating round-robin must serve round one starting at bank 0 and
	// round two starting at bank 1 — cross-bank order is deterministic
	// but no bank owns a permanent priority.
	eng := sim.NewEngine()
	b := newBanked(eng, 4, 2)
	var order []string
	send := func(tag string, bank int) {
		b.Send(0, 0, bank, func() { order = append(order, fmt.Sprintf("%s@%d", tag, eng.Now())) })
	}
	send("a0", 0)
	send("a1", 1)
	eng.Schedule(100, func() {
		send("b0", 0)
		send("b1", 1)
	})
	eng.Run()
	want := "[a0@4 a1@4 b1@104 b0@104]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("cross-bank service order %v, want %s", order, want)
	}
}

func TestBankedPumpPullsForwardForEarlierBank(t *testing.T) {
	// Arm the pump far in the future via a long backlog on bank 0, then
	// send on idle bank 1: its delivery is due earlier than the armed
	// pump and must not wait for it.
	eng := sim.NewEngine()
	b := newBanked(eng, 10, 2)
	for i := 0; i < 4; i++ {
		b.Send(0, 0, 0, func() {})
	}
	var second sim.Time
	eng.Schedule(1, func() {
		b.Send(0, 0, 1, func() { second = eng.Now() })
	})
	eng.Run()
	if second != 11 {
		t.Fatalf("idle-bank delivery at %d, want 11 (pump must be pulled forward)", second)
	}
}

func TestBankedBankOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range bank did not panic")
		}
	}()
	newBanked(sim.NewEngine(), 2, 4).Send(0, 0, 4, func() {})
}

func TestNewBankedRejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("banks=3 did not panic")
		}
	}()
	NewInterconnect(sim.NewEngine(), 2, 3, 8, "")
}

func TestNewInterconnectSelectsModel(t *testing.T) {
	eng := sim.NewEngine()
	for _, spec := range []string{"", "bus"} {
		n, ok := NewInterconnect(eng, 2, 0, 8, spec).(*Net)
		if !ok || n.Banks() != 1 || len(n.links) != 1 || len(n.pumps) != 1 {
			t.Errorf("topology %q banks=0 did not select the single bus (one link, one pump)", spec)
		}
	}
	ic := NewInterconnect(eng, 2, 4, 8, "")
	if n, ok := ic.(*Net); !ok || ic.Banks() != 4 || len(n.links) != 4 || len(n.pumps) != 1 {
		t.Errorf("banks=4 selected %T with %d banks, want 4 links on one pump", ic, ic.Banks())
	}
	if x, ok := NewInterconnect(eng, 2, 0, 8, "xbar").(*Xbar); !ok || len(x.BankStats()) != 8 {
		t.Errorf(`topology "xbar" selected %T, want an 8-port Xbar`, x)
	}
	if n, ok := NewInterconnect(eng, 2, 0, 8, "mesh").(*Net); !ok ||
		n.topo.Rows != 2 || n.topo.Cols != 4 || len(n.pumps) != len(n.links) || n.Banks() != 1 {
		t.Errorf(`topology "mesh" at 8 processors did not select a 2x4 mesh with one pump per link`)
	}
	if n, ok := NewInterconnect(eng, 2, 0, 8, "ring:4").(*Net); !ok || n.topo.Nodes != 4 || len(n.links) != 12 {
		t.Errorf(`topology "ring:4" did not select a 4-tile ring`)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unknown topology did not panic")
			}
		}()
		NewInterconnect(eng, 2, 0, 8, "torus")
	}()
}

func TestBankOf(t *testing.T) {
	for _, tc := range []struct{ key, banks, want int }{
		{5, 1, 0}, {5, 0, 0}, {5, -3, 0}, {5, 4, 1}, {6, 4, 2}, {8, 4, 0}, {13, 8, 5},
	} {
		if got := BankOf(uint64(tc.key), tc.banks); got != tc.want {
			t.Errorf("BankOf(%d, %d) = %d, want %d", tc.key, tc.banks, got, tc.want)
		}
	}
}

// TestBankOfRejectsNonPowerOfTwo pins the backstop for the interleave
// invariant: the &(banks-1) mask is only a modulus for powers of two, and
// a non-power-of-two count would silently skip banks (banks=3 masks with
// 2: bank 1 never carries traffic). Config validation rejects such
// machines; BankOf panics so a caller bypassing validation cannot run a
// silently lopsided interconnect.
func TestBankOfRejectsNonPowerOfTwo(t *testing.T) {
	for _, banks := range []int{3, 5, 6, 7, 12, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BankOf with banks=%d did not panic", banks)
				}
			}()
			BankOf(1, banks)
		}()
	}
}

// TestBankedOneBankMatchesSingleBus is the bus-level differential: the
// banked bus with one bank must deliver a randomized send schedule at
// exactly the cycles the single bus does, message for message. Both are
// one Net link on one pump, so this pins the Banks=0/1 construction
// path; the done-set digest (TestDoneSetCSVDigest) pins the link timing
// itself.
func TestBankedOneBankMatchesSingleBus(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		single := sim.NewEngine()
		banked := sim.NewEngine()
		var a Interconnect = newBus(single, 3)
		var b Interconnect = newBanked(banked, 3, 1)
		var got, want []string
		schedule := func(eng *sim.Engine, ic Interconnect, out *[]string) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				i := i
				at := sim.Time(rng.Intn(300))
				eng.Schedule(at, func() {
					ic.Send(0, 0, 0, func() {
						*out = append(*out, fmt.Sprintf("msg%d@%d", i, eng.Now()))
					})
				})
			}
		}
		schedule(single, a, &want)
		schedule(banked, b, &got)
		single.Run()
		banked.Run()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: banked(1) diverged from single bus:\nsingle: %v\nbanked: %v", seed, want, got)
		}
		if a.Stats() != b.Stats() {
			t.Fatalf("seed %d: stats diverged: single %+v banked %+v", seed, a.Stats(), b.Stats())
		}
	}
}

// FuzzBankedSlots drives the banked bus with an arbitrary send schedule
// and checks the arbitration invariants: no bank ever grants two senders
// overlapping occupancy slots (each bank's wires carry one message at a
// time), per-bank delivery order is FIFO, and every message is delivered
// exactly once. The fuzz input is a byte stream of (bank, delay) pairs.
func FuzzBankedSlots(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 3, 3, 3, 0, 1}, uint8(4))
	f.Add([]byte{0, 0, 0, 0, 0, 0}, uint8(1))
	f.Add([]byte{1, 200, 2, 200, 1, 0, 7, 9}, uint8(8))
	f.Add([]byte{0, 0, 1, 1}, uint8(3)) // non-power-of-two: construction must panic
	f.Add([]byte{5, 5}, uint8(6))
	f.Fuzz(func(t *testing.T, data []byte, banksRaw uint8) {
		banks := int(banksRaw%8) + 1 // 1..8 banks, power of two or not
		const occupancy = sim.Time(5)
		eng := sim.NewEngine()
		if banks&(banks-1) != 0 {
			// The mask interleave is wrong off powers of two; the model
			// must refuse to build rather than run lopsided, and BankOf
			// must refuse to map.
			defer func() {
				if recover() == nil {
					t.Fatalf("NewInterconnect(banks=%d) did not panic", banks)
				}
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("BankOf(_, %d) did not panic", banks)
						}
					}()
					BankOf(uint64(len(data)), banks)
				}()
			}()
			newBanked(eng, occupancy, banks)
			return
		}
		b := newBanked(eng, occupancy, banks)
		type crossing struct {
			bank int
			seq  int
			end  sim.Time
		}
		var crossings []crossing
		sent := 0
		at := sim.Time(0)
		for i := 0; i+1 < len(data); i += 2 {
			bank := int(data[i]) % banks
			at += sim.Time(data[i+1])
			seq := sent
			sent++
			eng.Schedule(at, func() {
				b.Send(0, 0, bank, func() {
					crossings = append(crossings, crossing{bank: bank, seq: seq, end: eng.Now()})
				})
			})
		}
		eng.Run()
		if len(crossings) != sent {
			t.Fatalf("%d of %d messages delivered", len(crossings), sent)
		}
		// Per bank: slot ends strictly increase by at least one occupancy
		// (no two senders share a slot) and per-bank arrival order holds.
		lastEnd := map[int]sim.Time{}
		lastSeq := map[int]int{}
		for _, c := range crossings {
			if prev, ok := lastEnd[c.bank]; ok {
				if c.end < prev+occupancy {
					t.Fatalf("bank %d granted two senders overlapping slots: ends %d then %d (occupancy %d)",
						c.bank, prev, c.end, occupancy)
				}
				if got := lastSeq[c.bank]; c.seq < got {
					t.Fatalf("bank %d reordered senders: seq %d after %d", c.bank, c.seq, got)
				}
			}
			lastEnd[c.bank] = c.end
			lastSeq[c.bank] = c.seq
		}
		if st := b.Stats(); st.Messages != uint64(sent) || st.BusyCycles != uint64(sent)*uint64(occupancy) {
			t.Fatalf("stats %+v inconsistent with %d messages", st, sent)
		}
	})
}
