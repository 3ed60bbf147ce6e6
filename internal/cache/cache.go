// Package cache models the private L1 data cache of a TCC processor:
// set-associative with LRU replacement, extended with the speculative-read
// (SR) and speculative-modified (SM) bits that TCC uses for conflict
// detection and versioning.
//
// TCC is lazy/lazy: transactional reads mark SR, transactional writes are
// buffered in the cache with SM set and become visible to the rest of the
// system only at commit. An abort flash-clears all speculative state. A
// line with SM set must never be silently evicted mid-transaction — in
// real TCC hardware this causes a transaction overflow; the model surfaces
// it as ErrOverflow so the processor can serialize (the paper's workloads
// fit in L1, but the condition must still be handled).
package cache

import (
	"errors"
	"fmt"

	"repro/internal/mem"
)

// ErrOverflow is returned when a speculatively-modified line would have to
// be evicted to make room. TCC cannot spill speculative state, so the
// transaction must be aborted and retried in a serialized mode.
var ErrOverflow = errors.New("cache: speculative state overflow")

// line is one cache line's metadata. Data contents are not modeled — the
// simulator tracks timing and coherence, not values — but the commit
// version of the data the line holds is, for commit-time validation.
type line struct {
	tag     mem.LineAddr
	valid   bool
	sr      bool // speculatively read this transaction
	sm      bool // speculatively modified this transaction
	lru     uint64
	version uint64 // commit version of the held data; 0 until set
}

// Stats counts cache events for reporting.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	Invalidations uint64
	Overflows     uint64
}

// Cache is a set-associative L1 data cache with speculative bits.
type Cache struct {
	geom  *mem.Geometry
	sets  int
	ways  int
	lines []line // sets*ways, row-major by set
	tick  uint64 // LRU clock
	stats Stats
	// spec lists every line that gained an SR or SM bit since the last
	// flash-clear, so the clear visits the transaction's footprint, not
	// the whole cache. It is append-only: a line that loses its bits
	// (eviction, invalidation) stays listed, and one that regains them is
	// listed again. The bits are the truth; the list only says where to
	// look.
	spec []mem.LineAddr
}

// Config describes a cache shape.
type Config struct {
	SizeBytes int // total capacity
	Ways      int // associativity
}

// New builds a cache over the given geometry. Size must be a multiple of
// ways*lineBytes and the resulting set count must be a power of two.
func New(geom *mem.Geometry, cfg Config) (*Cache, error) {
	lb := int(geom.LineBytes())
	if cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache: ways %d must be positive", cfg.Ways)
	}
	if cfg.SizeBytes <= 0 || cfg.SizeBytes%(cfg.Ways*lb) != 0 {
		return nil, fmt.Errorf("cache: size %d not divisible by ways*line (%d*%d)", cfg.SizeBytes, cfg.Ways, lb)
	}
	sets := cfg.SizeBytes / (cfg.Ways * lb)
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d is not a power of two", sets)
	}
	return &Cache{
		geom:  geom,
		sets:  sets,
		ways:  cfg.Ways,
		lines: make([]line, sets*cfg.Ways),
	}, nil
}

// MustNew is New that panics on error.
func MustNew(geom *mem.Geometry, cfg Config) *Cache {
	c, err := New(geom, cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) setOf(l mem.LineAddr) int {
	return int(uint64(l) & uint64(c.sets-1)) // sets is a power of two
}

func (c *Cache) find(l mem.LineAddr) *line {
	set := c.setOf(l)
	base := set * c.ways
	for i := 0; i < c.ways; i++ {
		ln := &c.lines[base+i]
		if ln.valid && ln.tag == l {
			return ln
		}
	}
	return nil
}

// Present reports whether the line is valid in the cache.
func (c *Cache) Present(l mem.LineAddr) bool { return c.find(l) != nil }

// AccessResult describes the outcome of a load or store probe.
type AccessResult struct {
	Hit     bool
	Victim  mem.LineAddr // line evicted to make room (valid only if Evicted)
	Evicted bool
}

// Access performs a transactional load (write=false) or store (write=true)
// of the line. On a hit it updates LRU and speculative bits. On a miss it
// allocates the line, evicting the LRU way (never an SM line: if all ways
// in the set hold SM lines the access fails with ErrOverflow).
func (c *Cache) Access(l mem.LineAddr, write bool) (AccessResult, error) {
	c.tick++
	if ln := c.find(l); ln != nil {
		c.stats.Hits++
		ln.lru = c.tick
		c.markSpec(ln, write)
		return AccessResult{Hit: true}, nil
	}
	c.stats.Misses++
	set := c.setOf(l)
	base := set * c.ways
	victim := -1
	var victimLRU uint64 = ^uint64(0)
	for i := 0; i < c.ways; i++ {
		ln := &c.lines[base+i]
		if !ln.valid {
			victim = i
			victimLRU = 0
			break
		}
		if ln.sm {
			continue // cannot evict speculative dirty state
		}
		if ln.lru < victimLRU {
			victim = i
			victimLRU = ln.lru
		}
	}
	if victim < 0 {
		c.stats.Overflows++
		return AccessResult{}, ErrOverflow
	}
	ln := &c.lines[base+victim]
	res := AccessResult{}
	if ln.valid {
		c.stats.Evictions++
		res.Victim = ln.tag
		res.Evicted = true
	}
	*ln = line{tag: l, valid: true, lru: c.tick}
	c.markSpec(ln, write)
	return res, nil
}

func (c *Cache) markSpec(ln *line, write bool) {
	if !ln.sr && !ln.sm {
		c.spec = append(c.spec, ln.tag)
	}
	if write {
		ln.sm = true
	} else {
		ln.sr = true
	}
}

// SpeculativelyRead reports whether the line carries the SR bit.
func (c *Cache) SpeculativelyRead(l mem.LineAddr) bool {
	ln := c.find(l)
	return ln != nil && ln.sr
}

// SpeculativelyModified reports whether the line carries the SM bit.
func (c *Cache) SpeculativelyModified(l mem.LineAddr) bool {
	ln := c.find(l)
	return ln != nil && ln.sm
}

// Version returns the commit version of the data the cache holds for l,
// or 0 if l is not resident or no version was recorded since it was
// allocated.
func (c *Cache) Version(l mem.LineAddr) uint64 {
	if ln := c.find(l); ln != nil {
		return ln.version
	}
	return 0
}

// SetVersion records the commit version of the data held for l. It is a
// no-op when l is not resident: the version lives and dies with the line.
func (c *Cache) SetVersion(l mem.LineAddr, v uint64) {
	if ln := c.find(l); ln != nil {
		ln.version = v
	}
}

// ClearSpeculative flash-clears all SR/SM bits. Called on abort (discarding
// the write-set: the lines' data is stale so they are also invalidated, as
// TCC buffers new values in place) and on commit (keeping the data: lines
// stay valid, bits clear). An invalidated line takes its version with it.
//
// Only the lines listed since the last clear are visited, so the cost
// scales with the transaction footprint, not the cache size. What happens
// to a listed line depends only on the bits it carries now, which makes
// stale and repeated entries harmless and the visiting order irrelevant.
func (c *Cache) ClearSpeculative(abort bool) {
	for _, l := range c.spec {
		ln := c.find(l)
		if ln == nil {
			continue
		}
		if abort && ln.sm {
			ln.valid = false // speculative data never became architectural
		}
		ln.sr, ln.sm = false, false
	}
	c.spec = c.spec[:0]
}

// Reset returns the cache to its post-construction state — every line
// invalid, LRU clock at zero, counters and the speculative list cleared —
// keeping the line array and the list's storage, so a reused cache warms
// up without reallocating.
func (c *Cache) Reset() {
	clear(c.lines)
	c.tick = 0
	c.stats = Stats{}
	c.spec = c.spec[:0]
}

// Invalidate drops the line if present (coherence invalidation from a
// remote commit). It returns whether the line was present and whether it
// was speculatively read — the condition under which the owning processor
// must abort.
func (c *Cache) Invalidate(l mem.LineAddr) (present, wasSpecRead bool) {
	ln := c.find(l)
	if ln == nil {
		return false, false
	}
	c.stats.Invalidations++
	wasSpecRead = ln.sr
	ln.valid, ln.sr, ln.sm = false, false, false
	return true, wasSpecRead
}
