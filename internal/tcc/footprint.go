package tcc

import "repro/internal/mem"

// Footprint entry flags.
const (
	fpRead    uint8 = 1 << iota // the transaction read the line
	fpWrite                     // the transaction wrote the line
	fpVersion                   // version holds the first-read snapshot
)

// fpEntry is one line of a transaction's logical footprint. A slot whose
// epoch differs from the table's is empty.
type fpEntry struct {
	line    mem.LineAddr
	version uint64 // commit version of the line when first read (0 if never snapshotted)
	epoch   uint32
	flags   uint8
}

// footprint is a transaction's logical read- and write-set: every line it
// read or wrote, with the version each read line had when first read. It
// is the one record of the footprint the processor consults (the L1's
// SR/SM bits only pin lines and steer the flash-clear), and it outlives
// L1 eviction: an evicted read line still belongs to the read-set.
//
// The table is open-addressed with linear probing and epoch-stamped
// slots, so clearing it between transactions is one increment rather
// than a walk. order lists the occupied slots in insertion order, which
// is how the table is enumerated; the consumers (commit groups sorted by
// home and line, deduplicated directory lists, the validation AND) are
// order-independent, so enumeration order never reaches simulation state.
type footprint struct {
	slots  []fpEntry // power-of-two length
	epoch  uint32
	order  []int32 // occupied slots, in insertion order
	writes int     // entries with fpWrite set
}

const fpMinSlots = 64

func newFootprint() footprint {
	return footprint{slots: make([]fpEntry, fpMinSlots), epoch: 1}
}

// home returns the first probe slot for l (Fibonacci hashing: LineAddrs
// are dense and strided, so their low bits alone cluster badly).
func (f *footprint) home(l mem.LineAddr) int {
	return int((uint64(l) * 0x9E3779B97F4A7C15) >> 32 & uint64(len(f.slots)-1))
}

// find returns l's entry, or nil if the transaction has not touched l.
func (f *footprint) find(l mem.LineAddr) *fpEntry {
	mask := len(f.slots) - 1
	for i := f.home(l); ; i = (i + 1) & mask {
		e := &f.slots[i]
		if e.epoch != f.epoch {
			return nil
		}
		if e.line == l {
			return e
		}
	}
}

// add returns l's entry, inserting an empty one if absent. The pointer is
// valid until the next add.
func (f *footprint) add(l mem.LineAddr) *fpEntry {
	if 2*(len(f.order)+1) > len(f.slots) {
		f.grow()
	}
	mask := len(f.slots) - 1
	for i := f.home(l); ; i = (i + 1) & mask {
		e := &f.slots[i]
		if e.epoch != f.epoch {
			*e = fpEntry{line: l, epoch: f.epoch}
			f.order = append(f.order, int32(i))
			return e
		}
		if e.line == l {
			return e
		}
	}
}

// addRead records a read of l.
func (f *footprint) addRead(l mem.LineAddr) *fpEntry {
	e := f.add(l)
	e.flags |= fpRead
	return e
}

// addWrite records a write of l.
func (f *footprint) addWrite(l mem.LineAddr) {
	e := f.add(l)
	if e.flags&fpWrite == 0 {
		e.flags |= fpWrite
		f.writes++
	}
}

// snapshot records v as l's read version unless one is already held:
// validation compares against the version of the first read.
func (e *fpEntry) snapshot(v uint64) {
	if e.flags&fpVersion == 0 {
		e.flags |= fpVersion
		e.version = v
	}
}

// isRead reports whether the transaction read l.
func (f *footprint) isRead(l mem.LineAddr) bool {
	e := f.find(l)
	return e != nil && e.flags&fpRead != 0
}

// entry returns the i-th entry in insertion order, for 0 <= i < len().
func (f *footprint) entry(i int) *fpEntry { return &f.slots[f.order[i]] }

// len returns the number of lines in the footprint.
func (f *footprint) len() int { return len(f.order) }

// clear empties the footprint in O(1), keeping its storage. On the
// (practically unreachable) epoch wrap the slots are zeroed so no stale
// stamp can alias the restarted epoch.
func (f *footprint) clear() {
	f.order = f.order[:0]
	f.writes = 0
	f.epoch++
	if f.epoch == 0 {
		clear(f.slots)
		f.epoch = 1
	}
}

// grow doubles the table, re-inserting the live entries in insertion
// order so enumeration order survives.
func (f *footprint) grow() {
	old, order := f.slots, f.order
	f.slots = make([]fpEntry, 2*len(old))
	f.order = make([]int32, 0, cap(order))
	mask := len(f.slots) - 1
	for _, s := range order {
		e := old[s]
		i := f.home(e.line)
		for f.slots[i].epoch == f.epoch {
			i = (i + 1) & mask
		}
		f.slots[i] = e
		f.order = append(f.order, int32(i))
	}
}
