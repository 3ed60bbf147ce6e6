package workload

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzTraceDecode throws arbitrary bytes at the CGTRACE2 decoder. The
// store loads files another process may have half-written or a disk may
// have mangled, so the decoder's contract under garbage is total: either
// a valid trace or an error wrapping ErrCorrupt — never a panic, and
// never an allocation sized by an unbacked length prefix. Accepted
// inputs must re-encode to the same bytes.
func FuzzTraceDecode(f *testing.F) {
	s := validSpec()
	tr, err := s.Generate(2, 9)
	if err != nil {
		f.Fatal(err)
	}
	v2, err := MarshalV2(tr)
	if err != nil {
		f.Fatal(err)
	}
	one, err := MarshalV2(&Trace{Name: "one", Threads: []Thread{{
		Txs:     []Transaction{{PC: 7, Ops: []Op{{Kind: OpCompute, Cycles: 3}}}},
		InterTx: []int32{1},
	}}})
	if err != nil {
		f.Fatal(err)
	}
	flipped := bytes.Clone(v2)
	flipped[len(flipped)-1] ^= 0x80
	f.Add(one)
	f.Add(v2)
	f.Add(flipped)
	f.Add(v2[:len(v2)/2])
	f.Add(append(bytes.Clone(one), 0))
	f.Add([]byte("CGTRACE2"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if tr, err := DecodeV2Bytes(data); err == nil {
			redo, err := MarshalV2(tr)
			if err != nil {
				t.Fatalf("decoded trace does not re-encode: %v", err)
			}
			if !bytes.Equal(redo, data) {
				t.Fatal("re-encode of an accepted input changed the bytes")
			}
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
		}
	})
}
