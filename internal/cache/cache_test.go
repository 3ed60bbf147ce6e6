package cache

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/sim"
)

func geom(t *testing.T) *mem.Geometry {
	t.Helper()
	return mem.MustGeometry(64, 4, 1<<24)
}

func small(t *testing.T) *Cache {
	t.Helper()
	// 4 sets x 2 ways x 64B = 512B cache: tiny, to force evictions.
	return MustNew(geom(t), Config{SizeBytes: 512, Ways: 2})
}

// specLines scans every way of the cache and returns the valid lines
// carrying the SR bit and those carrying the SM bit, in ascending order.
func specLines(c *Cache) (rs, ws []mem.LineAddr) {
	for _, ln := range c.lines {
		if !ln.valid {
			continue
		}
		if ln.sr {
			rs = append(rs, ln.tag)
		}
		if ln.sm {
			ws = append(ws, ln.tag)
		}
	}
	slices.Sort(rs)
	slices.Sort(ws)
	return rs, ws
}

func TestNewValidation(t *testing.T) {
	g := geom(t)
	cases := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"valid 64KB 2-way", Config{64 << 10, 2}, false},
		{"zero ways", Config{64 << 10, 0}, true},
		{"size not divisible", Config{1000, 2}, true},
		{"sets not power of two", Config{3 * 2 * 64, 2}, true},
		{"direct mapped", Config{4096, 1}, false},
		{"fully-ish associative", Config{512, 8}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := New(g, c.cfg)
			if (err != nil) != c.wantErr {
				t.Fatalf("New(%+v) err=%v wantErr=%v", c.cfg, err, c.wantErr)
			}
		})
	}
}

func TestMissThenHit(t *testing.T) {
	c := small(t)
	res, err := c.Access(100, false)
	if err != nil || res.Hit {
		t.Fatalf("first access: res=%+v err=%v, want miss", res, err)
	}
	res, err = c.Access(100, false)
	if err != nil || !res.Hit {
		t.Fatalf("second access: res=%+v err=%v, want hit", res, err)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSpeculativeBitsTracked(t *testing.T) {
	c := small(t)
	c.Access(1, false)
	c.Access(2, true)
	if !c.SpeculativelyRead(1) || c.SpeculativelyModified(1) {
		t.Fatal("line 1 should be SR only")
	}
	if !c.SpeculativelyModified(2) || c.SpeculativelyRead(2) {
		t.Fatal("line 2 should be SM only")
	}
	c.Access(1, true) // read then write: both bits
	if !c.SpeculativelyRead(1) || !c.SpeculativelyModified(1) {
		t.Fatal("line 1 should be SR+SM")
	}
	if rs, ws := specLines(c); len(rs) != 1 || len(ws) != 2 {
		t.Fatalf("speculative lines rs=%v ws=%v", rs, ws)
	}
}

func TestReadWriteSetsSortedAndDistinct(t *testing.T) {
	c := MustNew(geom(t), Config{SizeBytes: 64 << 10, Ways: 2})
	for _, l := range []mem.LineAddr{900, 3, 55, 3, 900} {
		c.Access(l, false)
	}
	want := []mem.LineAddr{3, 55, 900}
	if rs, _ := specLines(c); !slices.Equal(rs, want) {
		t.Fatalf("SR lines %v, want %v", rs, want)
	}
	for _, l := range want {
		if !c.SpeculativelyRead(l) {
			t.Fatalf("line %d not SR", l)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	c := small(t) // 4 sets, 2 ways
	// Three lines in the same set (set = line % 4): 0, 4, 8.
	c.Access(0, false)
	c.Access(4, false)
	c.Access(0, false) // touch 0: 4 becomes LRU
	res, err := c.Access(8, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Evicted || res.Victim != 4 {
		t.Fatalf("expected eviction of line 4, got %+v", res)
	}
	if !c.Present(0) || c.Present(4) || !c.Present(8) {
		t.Fatal("wrong residency after eviction")
	}
}

func TestEvictionDropsSpecReadBit(t *testing.T) {
	c := small(t)
	c.Access(0, false)
	c.Access(4, false)
	c.Access(8, false) // evicts 0 (LRU)
	if c.SpeculativelyRead(0) {
		t.Fatal("evicted line still reports SR")
	}
	if rs, _ := specLines(c); !slices.Equal(rs, []mem.LineAddr{4, 8}) {
		t.Fatalf("SR lines %v, want [4 8]", rs)
	}
}

func TestSMLinesPinnedAgainstEviction(t *testing.T) {
	c := small(t)     // 2 ways per set
	c.Access(0, true) // SM
	c.Access(4, false)
	// New line in the same set must evict the clean line 4, not SM line 0.
	res, err := c.Access(8, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Evicted || res.Victim != 4 {
		t.Fatalf("expected clean victim 4, got %+v", res)
	}
	if !c.SpeculativelyModified(0) {
		t.Fatal("SM line was evicted")
	}
}

func TestOverflowWhenAllWaysSM(t *testing.T) {
	c := small(t)
	c.Access(0, true)
	c.Access(4, true)
	_, err := c.Access(8, true)
	if err != ErrOverflow {
		t.Fatalf("expected ErrOverflow, got %v", err)
	}
	if c.Stats().Overflows != 1 {
		t.Fatalf("overflow not counted: %+v", c.Stats())
	}
}

func TestClearSpeculativeCommitKeepsLines(t *testing.T) {
	c := small(t)
	c.Access(1, false)
	c.Access(2, true)
	c.ClearSpeculative(false)
	if !c.Present(1) || !c.Present(2) {
		t.Fatal("commit-clear dropped lines")
	}
	if c.SpeculativelyRead(1) || c.SpeculativelyModified(2) {
		t.Fatal("commit-clear left speculative bits")
	}
	if rs, ws := specLines(c); len(rs) != 0 || len(ws) != 0 {
		t.Fatalf("commit-clear left speculative lines rs=%v ws=%v", rs, ws)
	}
}

func TestClearSpeculativeAbortDropsWrittenLines(t *testing.T) {
	c := small(t)
	c.Access(1, false)
	c.Access(2, true)
	c.ClearSpeculative(true)
	if !c.Present(1) {
		t.Fatal("abort-clear dropped a read-only line")
	}
	if c.Present(2) {
		t.Fatal("abort-clear kept a speculatively written line")
	}
}

func TestInvalidate(t *testing.T) {
	c := small(t)
	c.Access(1, false)
	present, sr := c.Invalidate(1)
	if !present || !sr {
		t.Fatalf("Invalidate(1) = (%v,%v), want (true,true)", present, sr)
	}
	if c.Present(1) {
		t.Fatal("line present after invalidation")
	}
	present, sr = c.Invalidate(1)
	if present || sr {
		t.Fatal("second invalidation reported presence")
	}
	if c.Stats().Invalidations != 1 {
		t.Fatalf("invalidation count %d", c.Stats().Invalidations)
	}
}

func TestInvalidateNonSpeculativeLine(t *testing.T) {
	c := small(t)
	c.Access(5, false)
	c.ClearSpeculative(false) // now resident but not speculative
	present, sr := c.Invalidate(5)
	if !present || sr {
		t.Fatalf("Invalidate = (%v,%v), want (true,false)", present, sr)
	}
}

// Property: after any access sequence, the lines carrying SR/SM bits agree
// with the per-line predicates, contain no duplicates, and are all on the
// speculative list the flash-clear walks — and the flash-clear then
// leaves no bit behind.
func TestQuickSetConsistency(t *testing.T) {
	g := mem.MustGeometry(64, 4, 1<<24)
	f := func(seed uint64, opsRaw []byte) bool {
		c := MustNew(g, Config{SizeBytes: 2048, Ways: 2})
		rng := sim.NewRNG(seed, 1)
		for range opsRaw {
			line := mem.LineAddr(rng.Intn(64))
			write := rng.Bool(0.5)
			if _, err := c.Access(line, write); err != nil {
				// Overflow is legal under this tiny cache; the caller
				// (processor model) handles it. State must stay sane.
				continue
			}
		}
		rs, ws := specLines(c)
		seen := map[mem.LineAddr]bool{}
		for _, l := range rs {
			if seen[l] || !c.SpeculativelyRead(l) {
				return false
			}
			seen[l] = true
		}
		seen = map[mem.LineAddr]bool{}
		for _, l := range ws {
			if seen[l] || !c.SpeculativelyModified(l) {
				return false
			}
			seen[l] = true
		}
		for _, l := range append(rs, ws...) {
			if !slices.Contains(c.spec, l) {
				return false
			}
		}
		c.ClearSpeculative(rng.Bool(0.5))
		rs, ws = specLines(c)
		return len(rs) == 0 && len(ws) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: every access is tallied exactly once — successful ones as a
// hit or a completed miss, failed ones as a miss that overflowed.
func TestQuickStatsBalance(t *testing.T) {
	g := mem.MustGeometry(64, 4, 1<<24)
	f := func(seed uint64, n uint8) bool {
		c := MustNew(g, Config{SizeBytes: 1024, Ways: 2})
		rng := sim.NewRNG(seed, 2)
		ok := uint64(0)
		for i := 0; i < int(n); i++ {
			if _, err := c.Access(mem.LineAddr(rng.Intn(32)), rng.Bool(0.3)); err == nil {
				ok++
			}
		}
		st := c.Stats()
		return st.Hits+st.Misses == ok+st.Overflows
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestVersionLivesWithLine(t *testing.T) {
	c := small(t) // 4 sets, 2 ways
	c.SetVersion(0, 9)
	if c.Version(0) != 0 {
		t.Fatal("SetVersion on an absent line recorded a version")
	}
	c.Access(0, false)
	if c.Version(0) != 0 {
		t.Fatal("fresh line carries a version")
	}
	c.SetVersion(0, 7)
	if c.Version(0) != 7 {
		t.Fatalf("Version(0) = %d, want 7", c.Version(0))
	}
	c.Access(4, false)
	c.Access(8, false) // evicts 0 (LRU)
	c.Access(0, false) // reallocated: the old version must not resurface
	if c.Version(0) != 0 {
		t.Fatalf("reallocated line kept version %d", c.Version(0))
	}
	c.SetVersion(0, 3)
	c.Invalidate(0)
	if c.Version(0) != 0 {
		t.Fatal("invalidated line still reports a version")
	}
	c.Access(12, true)
	c.SetVersion(12, 5)
	c.ClearSpeculative(true) // abort drops the written line and its version
	if c.Present(12) || c.Version(12) != 0 {
		t.Fatal("abort-dropped line still reports a version")
	}
}
