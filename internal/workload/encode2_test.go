package workload

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"reflect"
	"runtime"
	"testing"
)

func TestV2RoundTrip(t *testing.T) {
	s := validSpec()
	tr, err := s.Generate(4, 42)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := MarshalV2(tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeV2Bytes(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name {
		t.Fatalf("name %q, want %q", got.Name, tr.Name)
	}
	if !reflect.DeepEqual(got.Threads, tr.Threads) {
		t.Fatal("threads not preserved by round trip")
	}
}

// The format is the content address: the same trace must always marshal
// to the same bytes, and re-encoding a decoded trace must reproduce the
// original file image exactly.
func TestV2Deterministic(t *testing.T) {
	s := validSpec()
	tr, err := s.Generate(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	a, err := MarshalV2(tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalV2(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two marshals of one trace differ")
	}
	got, err := DecodeV2Bytes(a)
	if err != nil {
		t.Fatal(err)
	}
	c, err := MarshalV2(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Fatal("re-encoding a decoded trace changed the bytes")
	}
}

// fixV2Checksum recomputes the header checksum after a test mutated the
// file image, so corruption tests exercise the validation they target
// instead of tripping the checksum first.
func fixV2Checksum(buf []byte) {
	h := fnv.New64a()
	h.Write(buf[16:])
	binary.LittleEndian.PutUint64(buf[8:], h.Sum64())
}

func TestV2RejectsCorruption(t *testing.T) {
	s := validSpec()
	tr, err := s.Generate(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	full, err := MarshalV2(tr)
	if err != nil {
		t.Fatal(err)
	}

	// Every strict prefix must fail cleanly, never panic.
	for _, cut := range []int{0, 7, 8, 16, 39, 40, len(full) / 2, len(full) - 1} {
		if _, err := DecodeV2Bytes(full[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: err = %v, want ErrCorrupt", cut, err)
		}
	}

	// A bit flip anywhere in the body trips the checksum.
	for _, pos := range []int{16, 41, len(full) / 2, len(full) - 1} {
		mut := bytes.Clone(full)
		mut[pos] ^= 0x40
		if _, err := DecodeV2Bytes(mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at %d: err = %v, want ErrCorrupt", pos, err)
		}
	}

	// Bad magic.
	mut := bytes.Clone(full)
	copy(mut, "NOTTRACE")
	if _, err := DecodeV2Bytes(mut); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic: err = %v, want ErrCorrupt", err)
	}

	// A lying op count with a valid checksum must be rejected by the
	// size arithmetic, not trusted into an allocation or an index.
	mut = bytes.Clone(full)
	binary.LittleEndian.PutUint64(mut[32:], 1<<30)
	fixV2Checksum(mut)
	if _, err := DecodeV2Bytes(mut); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("lying op count: err = %v, want ErrCorrupt", err)
	}

	// An op kind outside the enum, checksum fixed up.
	_, err = DecodeV2Bytes(full) // locate the op section via a clean decode
	if err != nil {
		t.Fatal(err)
	}
	mut = bytes.Clone(full)
	mut[len(mut)-v2OpRecSize] = 99
	fixV2Checksum(mut)
	if _, err := DecodeV2Bytes(mut); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad op kind: err = %v, want ErrCorrupt", err)
	}
}

// TestV2DecodeAllocBounded pins the zero-copy contract of the aliasing
// decode: however many operations the trace holds, decoding allocates
// only the fixed trace skeleton (trace, thread table, transaction
// arena, name) — never a per-transaction or per-op copy of the payload.
func TestV2DecodeAllocBounded(t *testing.T) {
	if !opsAliasable {
		t.Skip("host Op layout does not permit the aliasing decode")
	}
	s := validSpec()
	s.TotalTxs = 4096
	tr, err := s.Generate(4, 42)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := MarshalV2(tr)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(16, func() {
		if _, err := DecodeV2Bytes(buf); err != nil {
			t.Fatal(err)
		}
	})
	// 4 threads x 1024 txs: a copying decode pays thousands of
	// allocations; the aliasing decode pays a handful.
	if allocs > 16 {
		t.Fatalf("aliasing decode allocated %v times per load, want <= 16", allocs)
	}
}

// TestDecodeWrapsErrCorrupt pins the sentinel on every failure class —
// bad magic, truncation, a body bit flip — so the trace store can branch
// on errors.Is to quarantine.
func TestDecodeWrapsErrCorrupt(t *testing.T) {
	s := validSpec()
	tr, err := s.Generate(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	full, err := MarshalV2(tr)
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(full)
	flipped[len(flipped)/2] ^= 0x01
	for name, data := range map[string][]byte{
		"bad magic":  []byte("NOTATRACE-------------------------------------"),
		"truncation": full[:len(full)/2],
		"bit flip":   flipped,
	} {
		if _, err := DecodeV2Bytes(data); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestDecodeLyingCountsNoOOM feeds headers whose counts claim vastly
// more elements than the input holds, checksum fixed up. The decoder
// must fail on the size arithmetic without sizing any allocation from
// the lie.
func TestDecodeLyingCountsNoOOM(t *testing.T) {
	s := validSpec()
	tr, err := s.Generate(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	full, err := MarshalV2(tr)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	for name, set := range map[string]func([]byte){
		"tx count": func(b []byte) { le.PutUint64(b[24:], 1<<39) },
		"op count": func(b []byte) { le.PutUint64(b[32:], 1<<39) },
		"both":     func(b []byte) { le.PutUint64(b[24:], 1<<39); le.PutUint64(b[32:], 1<<39) },
		// The header and the thread's own count agree, so only the size
		// arithmetic stands between the lie and the column slicing.
		"consistent tx count": func(b []byte) {
			nameLen := int(le.Uint32(b[16:]))
			le.PutUint32(b[v2HeaderSize+nameLen+pad8(nameLen):], 1<<20)
			le.PutUint64(b[24:], 1<<20)
		},
	} {
		mut := bytes.Clone(full)
		set(mut)
		fixV2Checksum(mut)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeV2Bytes(mut)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("lying %s: err = %v, want ErrCorrupt", name, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
			t.Fatalf("lying %s: allocated %d bytes before rejecting, want <= 64 KiB", name, n)
		}
	}
}
