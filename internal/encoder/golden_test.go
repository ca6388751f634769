package encoder

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// matrixDigest hashes every sampled entry of every stage — dimensions,
// row lengths, columns and coefficients — in order.
func matrixDigest(e *Encoder) string {
	h := sha256.New()
	var b [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, st := range e.Stages() {
		for _, m := range []*SparseMatrix{st.First, st.Second} {
			put(m.InDim)
			put(m.OutDim)
			for _, row := range m.Rows {
				put(len(row))
				for _, en := range row {
					put(en.Col)
					cb := en.Coeff.ToBytes()
					h.Write(cb[:])
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSampledMatricesGolden pins the expander graphs New samples: the
// commitments of every existing proof depend on them, so a change to the
// sampler must leave the rng draws, and so the matrices, unchanged.
func TestSampledMatricesGolden(t *testing.T) {
	for n, want := range map[int]string{
		64:   "c12568426afc480d32d392701a3f8f5ae9181fce2dd8684673a3a0345e9ad6d2",
		1024: "f21fb77c5b3685da05dd5f18cb0967a0490ae213e796d5f69f21f743f747a4c4",
	} {
		e, err := New(n, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if got := matrixDigest(e); got != want {
			t.Errorf("New(%d): matrix digest %s, want %s", n, got, want)
		}
	}
}

func BenchmarkNew1024(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := New(1024, DefaultParams()); err != nil {
			b.Fatal(err)
		}
	}
}
