package gkr

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/bits"
	"testing"

	"batchzk/internal/circuit"
	"batchzk/internal/field"
	"batchzk/internal/pcs"
	"batchzk/internal/transcript"
)

// committedDigest hashes every field element of a committed GKR proof in
// proof order (outputs; per layer the phase-1 and phase-2 round
// evaluations, then VU and VV), the commitment root, and the opening's
// rows, column indices, column values and siblings.
func committedDigest(cp *CommittedProof) string {
	h := sha256.New()
	elems := func(es ...field.Element) {
		for i := range es {
			b := es[i].ToBytes()
			h.Write(b[:])
		}
	}
	elems(cp.GKR.Outputs...)
	for _, l := range cp.GKR.Layers {
		for _, rd := range l.Phase1.Rounds {
			elems(rd.Evals...)
		}
		for _, rd := range l.Phase2.Rounds {
			elems(rd.Evals...)
		}
		elems(l.VU, l.VV)
	}
	h.Write(cp.Commitment.Root[:])
	op := cp.Opening
	elems(op.TestRow...)
	for _, row := range op.CombinedRows {
		elems(row...)
	}
	for _, j := range op.Paths.Indices {
		h.Write(binary.LittleEndian.AppendUint32(nil, uint32(j)))
	}
	for _, col := range op.Columns {
		elems(col...)
	}
	for _, s := range op.Paths.Siblings {
		h.Write(s[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCommittedProofGolden pins the committed GKR proof of a fixed
// circuit and input. The digest was taken before the layer sum-checks
// became instances of the shared sum-check kernel.
func TestCommittedProofGolden(t *testing.T) {
	const want = "a5b60cd141083a4134abf060989d7816928a1672d4711722490eba8aad587512"
	c, err := circuit.RandomCircuit(64, 2, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := circuit.RemoveSub(c)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := FromCircuit(flat)
	if err != nil {
		t.Fatal(err)
	}
	in, err := cc.InputVector(
		[]field.Element{field.NewElement(3), field.NewElement(5)},
		[]field.Element{field.NewElement(7), field.NewElement(11)})
	if err != nil {
		t.Fatal(err)
	}
	params := pcs.NewParams(bits.TrailingZeros(uint(cc.GKR.InputSize)))
	cp, err := ProveCommitted(cc.GKR, in, params, transcript.New(Domain))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyCommitted(cc.GKR, cp, params, transcript.New(Domain)); err != nil {
		t.Fatal(err)
	}
	if got := committedDigest(cp); got != want {
		t.Fatalf("committed proof digest %s, want %s", got, want)
	}
}
