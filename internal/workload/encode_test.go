package workload

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/sim"
)

// TestEncodeDecodeRoundTrip is the file round trip cmd/tracegen and
// cmd/tccsim -trace make: EncodeV2 through an io.Writer, DecodeV2Bytes
// over the written bytes.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := validSpec()
	tr, err := s.Generate(4, 42)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeV2(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeV2Bytes(buf.Bytes())
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

// TestDecodeRejectsBadMagic covers garbage and the retired CGTRACE1
// format: a file carrying the old magic is refused as corrupt, not
// misread.
func TestDecodeRejectsBadMagic(t *testing.T) {
	s := validSpec()
	tr, err := s.Generate(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	full, err := MarshalV2(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, magic := range []string{"NOTATRAC", "CGTRACE1"} {
		mut := bytes.Clone(full)
		copy(mut, magic)
		if _, err := DecodeV2Bytes(mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("magic %q: err = %v, want ErrCorrupt", magic, err)
		}
	}
}

// TestDecodeRejectsTruncation cuts a valid file at every length: each
// strict prefix must fail cleanly, never panic.
func TestDecodeRejectsTruncation(t *testing.T) {
	s := validSpec()
	tr, err := s.Generate(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	full, err := MarshalV2(tr)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeV2Bytes(full[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d bytes accepted", cut, len(full))
		}
	}
}

// TestDecodeRejectsAbsurdCounts sets header counts past the format's
// limits, checksum fixed up, so the range checks (not the checksum)
// must reject them.
func TestDecodeRejectsAbsurdCounts(t *testing.T) {
	s := validSpec()
	tr, err := s.Generate(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	full, err := MarshalV2(tr)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	for name, set := range map[string]func([]byte){
		"name length":  func(b []byte) { le.PutUint32(b[16:], 0xffff_ffff) },
		"zero threads": func(b []byte) { le.PutUint32(b[20:], 0) },
		"threads":      func(b []byte) { le.PutUint32(b[20:], v2MaxThreads+1) },
		"txs":          func(b []byte) { le.PutUint64(b[24:], v2MaxTxs+1) },
		"ops":          func(b []byte) { le.PutUint64(b[32:], v2MaxOps+1) },
	} {
		mut := bytes.Clone(full)
		set(mut)
		fixV2Checksum(mut)
		if _, err := DecodeV2Bytes(mut); !errors.Is(err, ErrCorrupt) {
			t.Errorf("absurd %s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestEncodeRejectsInconsistentThread(t *testing.T) {
	tr := &Trace{Name: "bad", Threads: []Thread{{
		Txs:     []Transaction{{PC: 1, Ops: []Op{{Kind: OpRead, Line: 1}}}},
		InterTx: nil, // length mismatch
	}}}
	if err := EncodeV2(io.Discard, tr); err == nil {
		t.Fatal("inconsistent thread encoded")
	}
}

func TestEncodeRejectsBadOpKind(t *testing.T) {
	tr := &Trace{Name: "bad", Threads: []Thread{{
		Txs:     []Transaction{{PC: 1, Ops: []Op{{Kind: 77}}}},
		InterTx: []int32{1},
	}}}
	if err := EncodeV2(io.Discard, tr); err == nil {
		t.Fatal("bad op kind encoded")
	}
}

// Property: random hand-built traces survive the round trip bit-exactly.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed uint64, nThreads, nTxs uint8) bool {
		rng := sim.NewRNG(seed, 3)
		threads := int(nThreads%4) + 1
		txs := int(nTxs%8) + 1
		tr := &Trace{Name: "q"}
		for i := 0; i < threads; i++ {
			th := Thread{}
			for x := 0; x < txs; x++ {
				tx := Transaction{PC: rng.Uint64()}
				for o := 0; o < rng.Intn(6)+1; o++ {
					switch rng.Intn(3) {
					case 0:
						tx.Ops = append(tx.Ops, Op{Kind: OpRead, Line: mem.LineAddr(rng.Intn(1 << 20))})
					case 1:
						tx.Ops = append(tx.Ops, Op{Kind: OpWrite, Line: mem.LineAddr(rng.Intn(1 << 20))})
					default:
						tx.Ops = append(tx.Ops, Op{Kind: OpCompute, Cycles: int32(rng.Intn(100) + 1)})
					}
				}
				th.Txs = append(th.Txs, tx)
				th.InterTx = append(th.InterTx, int32(rng.Intn(50)))
			}
			tr.Threads = append(tr.Threads, th)
		}
		var buf bytes.Buffer
		if err := EncodeV2(&buf, tr); err != nil {
			return false
		}
		got, err := DecodeV2Bytes(buf.Bytes())
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Threads, tr.Threads) && got.Name == tr.Name
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
