package tcc

import (
	"testing"

	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/workload"
)

// refEntry is the reference model's view of one footprint line.
type refEntry struct {
	read, write, snap bool
	version           uint64
}

// FuzzFootprint drives the epoch-stamped footprint table and a plain map
// through the same random sequence of add-read, add-write, snapshot,
// isRead, clear, grow and forced-epoch-wrap operations, and requires them
// to agree after every step: same lines, flags, versions and write count,
// with enumeration in insertion order.
func FuzzFootprint(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 2, 1, 3, 1, 4, 0, 3, 1})
	f.Add([]byte{1, 5, 2, 5, 2, 5, 0, 5, 5, 0, 3, 5, 6, 0, 3, 5})
	long := []byte{7}
	for i := 0; i < 200; i++ { // enough distinct lines to grow the table twice
		long = append(long, byte(i%3), byte(i))
	}
	f.Add(append(long, 4, 0, 0, 9, 3, 9))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// A large stride makes lines collide in the low bits, the case a
		// weak hash clusters on.
		stride := uint64(data[0])<<20 | 1
		data = data[1:]
		fp := newFootprint()
		ref := map[mem.LineAddr]*refEntry{}
		var order []mem.LineAddr
		get := func(l mem.LineAddr) *refEntry {
			e, ok := ref[l]
			if !ok {
				e = &refEntry{}
				ref[l] = e
				order = append(order, l)
			}
			return e
		}
		for i := 0; i+1 < len(data); i += 2 {
			kind, b := data[i]%7, data[i+1]
			l := mem.LineAddr(uint64(b) * stride)
			switch kind {
			case 0:
				fp.addRead(l)
				get(l).read = true
			case 1:
				fp.addWrite(l)
				get(l).write = true
			case 2:
				v := uint64(data[i]) << 8 // may be 0: a 0 snapshot still counts
				fp.add(l).snapshot(v)
				if e := get(l); !e.snap {
					e.snap, e.version = true, v
				}
			case 3:
				want := ref[l] != nil && ref[l].read
				if got := fp.isRead(l); got != want {
					t.Fatalf("step %d: isRead(%d) = %v, want %v", i/2, l, got, want)
				}
				if (fp.find(l) != nil) != (ref[l] != nil) {
					t.Fatalf("step %d: find(%d) presence disagrees with the model", i/2, l)
				}
			case 4:
				fp.clear()
				clear(ref)
				order = order[:0]
			case 5:
				if len(fp.slots) < 1<<12 { // each grow doubles the table
					fp.grow()
				}
			case 6:
				fp.epoch = ^uint32(0) // next clear wraps the epoch
				fp.clear()
				clear(ref)
				order = order[:0]
			}
			if fp.len() != len(order) {
				t.Fatalf("step %d: len %d, want %d", i/2, fp.len(), len(order))
			}
			writes := 0
			for k, l := range order {
				want := ref[l]
				e := fp.entry(k)
				if e.line != l {
					t.Fatalf("step %d: entry %d is line %d, want %d (insertion order)", i/2, k, e.line, l)
				}
				if e.flags&fpRead != 0 != want.read || e.flags&fpWrite != 0 != want.write ||
					e.flags&fpVersion != 0 != want.snap || e.version != want.version {
					t.Fatalf("step %d: line %d entry %+v, want %+v", i/2, l, *e, *want)
				}
				if want.write {
					writes++
				}
			}
			if fp.writes != writes {
				t.Fatalf("step %d: writes %d, want %d", i/2, fp.writes, writes)
			}
		}
	})
}

// TestEvictedReadLineInvalidationAborts pins that the read-set is the
// transaction's logical footprint, not the L1's SR bits: processor 0 reads
// line 0 and then evicts it from its 2-way L1 with two more reads to the
// same set, so its SR bit is gone; processor 1's commit of line 0 must
// still abort it by remote invalidation (the directory still lists it as a
// sharer). Processor 0's transaction is read-only, so no commit-time
// validation would catch the conflict instead.
func TestEvictedReadLineInvalidationAborts(t *testing.T) {
	tr := handTrace("evict",
		[]workload.Transaction{tx(1, rd(0), rd(2), rd(4), cp(5000))},
		[]workload.Transaction{tx(2, cp(1000), wr(0))},
	)
	cfg := config.Default(2)
	cfg.Machine.L1SizeBytes = 2 * 2 * 64 // 2 sets x 2 ways: lines 0, 2, 4 share set 0
	res := mustRun(t, cfg, tr)
	if res.CachePerProc[0].Evictions == 0 {
		t.Fatal("line 0 was never evicted: the test no longer exercises eviction")
	}
	if res.PerProc[0].Aborts == 0 {
		t.Fatal("invalidating an evicted read line did not abort the reader")
	}
	if res.Counters.Commits != 2 {
		t.Fatalf("commits %d, want 2", res.Counters.Commits)
	}
}

// TestRewrittenInvalidatedLineCommittedOnce pins commit-group dedup:
// processor 0 writes line 0, loses it to processor 1's commit (a
// write-only overlap, so no abort), then writes it again. The line
// re-enters the L1 with its SM bit set a second time, yet the commit must
// publish it once.
func TestRewrittenInvalidatedLineCommittedOnce(t *testing.T) {
	tr := handTrace("rewrite",
		[]workload.Transaction{tx(1, wr(0), cp(3000), wr(0))},
		[]workload.Transaction{tx(2, cp(300), wr(0))},
	)
	sys, err := NewSystem(config.Default(2), tr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CachePerProc[0].Invalidations == 0 {
		t.Fatal("processor 0's written line was never invalidated: the test no longer exercises the rewrite")
	}
	if res.PerProc[0].Aborts != 0 {
		t.Fatalf("write-only overlap aborted processor 0 %d times", res.PerProc[0].Aborts)
	}
	var lines uint64
	for _, d := range res.DirStats {
		lines += d.LinesCommitted
	}
	if lines != 2 {
		t.Fatalf("lines committed %d, want 2 (one per processor)", lines)
	}
}

// TestOverflowFallbackClearsCleanly runs a transaction whose write-set
// overflows a 2-way set — line 4 bypasses the L1 — through an abort
// (processor 1 commits the line it read) and a re-executed commit. Both
// flash-clears must leave no speculative bit and an empty footprint, and
// the commit must publish every written line, the bypassed one included,
// exactly once.
func TestOverflowFallbackClearsCleanly(t *testing.T) {
	tr := handTrace("ovclear",
		[]workload.Transaction{tx(1, rd(1), wr(0), wr(2), wr(4), cp(3000))},
		[]workload.Transaction{tx(2, cp(300), wr(1))},
	)
	cfg := config.Default(2)
	cfg.Machine.L1SizeBytes = 2 * 2 * 64
	sys, err := NewSystem(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.PerProc[0].Aborts == 0 {
		t.Fatal("processor 0 was never aborted: the test no longer exercises the abort clear")
	}
	if res.CachePerProc[0].Overflows < 2 {
		t.Fatalf("overflows %d: the fallback did not run on both attempts", res.CachePerProc[0].Overflows)
	}
	p := sys.Processors()[0]
	for _, l := range []mem.LineAddr{0, 1, 2, 4} {
		if p.l1.SpeculativelyRead(l) || p.l1.SpeculativelyModified(l) {
			t.Fatalf("line %d still carries a speculative bit after commit", l)
		}
	}
	if p.fp.len() != 0 || p.fp.writes != 0 {
		t.Fatalf("footprint holds %d lines (%d written) after commit", p.fp.len(), p.fp.writes)
	}
	var lines uint64
	for _, d := range res.DirStats {
		lines += d.LinesCommitted
	}
	if lines != 4 {
		t.Fatalf("lines committed %d, want 4 (line 1 by processor 1; 0, 2, 4 by processor 0)", lines)
	}
}

// TestReadWithoutSnapshotValidatesAsZero pins validation's default: a read
// line with no version snapshot is compared against version 0, so it
// passes while the line was never committed and fails once it was.
func TestReadWithoutSnapshotValidatesAsZero(t *testing.T) {
	const l = mem.LineAddr(40)
	sys, err := NewSystem(config.Default(1), handTrace("snap0", []workload.Transaction{tx(1, wr(l))}))
	if err != nil {
		t.Fatal(err)
	}
	p := sys.Processors()[0]
	p.fp.addRead(l)
	if !p.validateReadSet() {
		t.Fatal("an unsnapshotted read of a never-committed line failed validation")
	}
	p.fp.clear()
	if _, err := sys.Run(); err != nil { // commits l: its version moves past 0
		t.Fatal(err)
	}
	v := sys.Directories()[sys.geom.HomeDir(l)].Version(l)
	if v == 0 {
		t.Fatal("committed line still at version 0")
	}
	p.fp.addRead(l)
	if p.validateReadSet() {
		t.Fatal("an unsnapshotted read validated against a committed line")
	}
	p.fp.add(l).snapshot(v)
	if !p.validateReadSet() {
		t.Fatal("a read snapshotted at the current version failed validation")
	}
}
