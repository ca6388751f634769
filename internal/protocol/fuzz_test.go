package protocol

import (
	"bytes"
	"testing"
)

// FuzzProofDecode feeds arbitrary bytes to the proof decoder. Decoding
// must never panic, and whatever decodes must fail verification unless
// it is the honest proof's own encoding. The corpus is seeded with a
// valid BZK2 proof and truncated and bit-flipped copies of it.
func FuzzProofDecode(f *testing.F) {
	c, p, public, proof := proofForTest(f, 16)
	honest, err := proof.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(honest)
	for _, cut := range []int{0, 4, 48, len(honest) / 2, len(honest) - 33, len(honest) - 1} {
		f.Add(honest[:cut])
	}
	for _, pos := range []int{40, 44, len(honest) / 3, len(honest) / 2, len(honest) - 40, len(honest) - 1} {
		flipped := bytes.Clone(honest)
		flipped[pos] ^= 0x01
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var back Proof
		if back.UnmarshalBinary(data) != nil {
			return
		}
		err := Verify(c, p, public, &back)
		if bytes.Equal(data, honest) {
			if err != nil {
				t.Fatalf("honest proof rejected: %v", err)
			}
			return
		}
		if err == nil {
			t.Fatal("a proof other than the honest one verified")
		}
	})
}
