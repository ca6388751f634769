package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"

	"batchzk/internal/circuit"
	lincode "batchzk/internal/encoder"
	"batchzk/internal/field"
	"batchzk/internal/pcs"
	"batchzk/internal/sha2"
	"batchzk/internal/sumcheck"
)

func proofForTest(t testing.TB, gates int) (*circuit.Circuit, *Params, []field.Element, *Proof) {
	t.Helper()
	c, err := circuit.RandomCircuit(gates, 2, 2, int64(gates))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Setup(c)
	if err != nil {
		t.Fatal(err)
	}
	public := field.RandVector(2)
	proof, err := Prove(c, p, public, field.RandVector(2))
	if err != nil {
		t.Fatal(err)
	}
	return c, p, public, proof
}

func TestProofSerializationRoundTrip(t *testing.T) {
	c, p, public, proof := proofForTest(t, 64)
	data, err := proof.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Proof
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	// The deserialized proof must verify.
	if err := Verify(c, p, public, &back); err != nil {
		t.Fatalf("deserialized proof rejected: %v", err)
	}
	// Re-serialization is stable.
	data2, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("serialization is not canonical")
	}
}

func TestProofDeserializationRejections(t *testing.T) {
	_, _, _, proof := proofForTest(t, 32)
	data, _ := proof.MarshalBinary()

	var p Proof
	// Truncations at many offsets.
	for _, cut := range []int{0, 3, 4, 10, len(data) / 2, len(data) - 1} {
		if err := p.UnmarshalBinary(data[:cut]); err == nil {
			t.Fatalf("accepted truncation at %d", cut)
		}
	}
	// Bad magic.
	bad := append([]byte{}, data...)
	bad[0] = 'X'
	if err := p.UnmarshalBinary(bad); err == nil {
		t.Fatal("accepted bad magic")
	}
	// Trailing garbage.
	if err := p.UnmarshalBinary(append(append([]byte{}, data...), 0x00)); err == nil {
		t.Fatal("accepted trailing bytes")
	}
	// Corrupt a length field into a huge value.
	bad = append([]byte{}, data...)
	copy(bad[4+32:], []byte{0xff, 0xff, 0xff, 0x7f})
	if err := p.UnmarshalBinary(bad); err == nil {
		t.Fatal("accepted oversized length")
	}
	// Incomplete proof cannot be serialized.
	incomplete := &Proof{}
	if _, err := incomplete.MarshalBinary(); err == nil {
		t.Fatal("serialized an incomplete proof")
	}
}

func TestCorruptedProofFailsVerification(t *testing.T) {
	c, p, public, proof := proofForTest(t, 64)
	data, _ := proof.MarshalBinary()
	// Flip one byte inside the PCS column region (last third) — the proof
	// must either fail to parse (non-canonical element) or fail to verify.
	bad := append([]byte{}, data...)
	bad[len(bad)*2/3] ^= 0x01
	var back Proof
	if err := back.UnmarshalBinary(bad); err == nil {
		if err := Verify(c, p, public, &back); err == nil {
			t.Fatal("corrupted proof verified")
		}
	}
}

func TestRandomBitFlipsNeverVerify(t *testing.T) {
	// Fuzz-style robustness: flipping any random bit of a serialized
	// proof must result in a parse error or a verification failure —
	// never acceptance.
	c, p, public, proof := proofForTest(t, 48)
	data, _ := proof.MarshalBinary()
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		bad := append([]byte{}, data...)
		pos := rng.Intn(len(bad))
		bad[pos] ^= 1 << uint(rng.Intn(8))
		var back Proof
		if err := back.UnmarshalBinary(bad); err != nil {
			continue // parse rejection is fine
		}
		if err := Verify(c, p, public, &back); err == nil {
			t.Fatalf("trial %d: bit flip at byte %d verified", trial, pos)
		}
	}
}

// wireBytes is the BZK2 size of a proof, section by section.
func wireBytes(p *Proof) int {
	const u32, elem = 4, field.Bytes
	op := p.PCSProof
	n := 4 + sha2.Size + 2*u32 // magic, root, rows, cols
	n += u32 + len(p.Outputs)*elem + elem
	n += u32 + len(p.Hadamard.Rounds)*4*elem + 2*elem
	n += u32 + len(p.Linear.Rounds)*3*elem + elem
	n += 2 * (u32 + p.Commitment.NumCols*elem)                       // test and eval rows
	n += u32 + len(op.Paths.Indices)*(u32+p.Commitment.NumRows*elem) // columns
	n += u32 + len(op.Paths.Siblings)*sha2.Size                      // shared paths
	return n
}

func TestProofSize(t *testing.T) {
	// Opened columns dominate, so size grows with the circuit.
	_, _, _, small := proofForTest(t, 32)
	_, p, _, large := proofForTest(t, 2048)
	for _, proof := range []*Proof{small, large} {
		data, err := proof.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != wireBytes(proof) {
			t.Fatalf("wire size %d, section accounting %d", len(data), wireBytes(proof))
		}
	}
	ss, ls := wireBytes(small), wireBytes(large)
	if ls <= ss {
		t.Fatalf("proof size should grow with scale: %d vs %d", ls, ss)
	}
	// Against the near-square layout with one independent Merkle path per
	// opened column, the chosen layout and shared paths must at least
	// halve the proof (a 55% ceiling).
	logN := bits.TrailingZeros(uint(p.NumWires))
	cols := 1 << ((logN + 1) / 2)
	rows := p.NumWires / cols
	nOpen := p.PCS.NumOpenings
	op := large.PCSProof
	shared := pcs.OpeningBytes(p.PCS.NumRows, p.PCS.NumCols, len(op.Columns), len(op.Paths.Siblings))
	indep := pcs.OpeningBytes(rows, cols, nOpen, nOpen*bits.TrailingZeros(uint(lincode.RateInv*cols)))
	nearSquare := ls - shared + indep
	t.Logf("2048 gates: %d B (%dx%d, %d columns, %d siblings); near-square independent %dx%d: %d B",
		ls, p.PCS.NumRows, p.PCS.NumCols, len(op.Columns), len(op.Paths.Siblings), rows, cols, nearSquare)
	if 100*ls > 55*nearSquare {
		t.Fatalf("proof %d B exceeds 55%% of the near-square independent-path size %d B", ls, nearSquare)
	}
}

func TestProofSizeClosedForm(t *testing.T) {
	for _, gates := range []int{8, 64, 512, 2048} {
		_, _, _, proof := proofForTest(t, gates)
		data, err := proof.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		size, err := proof.Size()
		if err != nil || size != len(data) {
			t.Fatalf("%d gates: Size() = %d, %v; encoding has %d bytes", gates, size, err, len(data))
		}
		if allocs := testing.AllocsPerRun(10, func() { _, _ = proof.Size() }); allocs != 0 {
			t.Fatalf("%d gates: Size allocates %.0f times", gates, allocs)
		}
	}
	// A column that does not match the declared layout cannot be sized or
	// serialized.
	_, _, _, proof := proofForTest(t, 64)
	bad := *proof
	pp := *proof.PCSProof
	pp.Columns = append([][]field.Element{pp.Columns[0][1:]}, pp.Columns[1:]...)
	bad.PCSProof = &pp
	if _, err := bad.Size(); err == nil {
		t.Fatal("sized a proof with a short column")
	}
	if _, err := bad.MarshalBinary(); err == nil {
		t.Fatal("serialized a proof with a short column")
	}
}

// TestEncodeRejectsMalformedRounds: Size, WriteTo and MarshalBinary
// reject a sum-check section with no rounds or a round whose evaluation
// count is not its degree + 1 (4 for the Hadamard check, 3 for the
// linear check), and Verify rejects the same proofs; none of them may
// index out of range.
func TestEncodeRejectsMalformedRounds(t *testing.T) {
	c, p, public, proof := proofForTest(t, 64)
	clone := func(sp *sumcheck.Proof) *sumcheck.Proof {
		out := &sumcheck.Proof{Rounds: make([]sumcheck.Round, len(sp.Rounds))}
		for i, rd := range sp.Rounds {
			out.Rounds[i].Evals = append([]field.Element(nil), rd.Evals...)
		}
		return out
	}
	cases := []struct {
		name string
		mut  func(*Proof)
	}{
		{"hadamard round short", func(pr *Proof) { pr.Hadamard.Rounds[0].Evals = pr.Hadamard.Rounds[0].Evals[:3] }},
		{"hadamard round long", func(pr *Proof) { pr.Hadamard.Rounds[1].Evals = append(pr.Hadamard.Rounds[1].Evals, field.One()) }},
		{"hadamard without rounds", func(pr *Proof) { pr.Hadamard.Rounds = nil }},
		{"linear round short", func(pr *Proof) { pr.Linear.Rounds[2].Evals = pr.Linear.Rounds[2].Evals[:2] }},
		{"linear round without evaluations", func(pr *Proof) { pr.Linear.Rounds[0].Evals = nil }},
		{"linear without rounds", func(pr *Proof) { pr.Linear.Rounds = pr.Linear.Rounds[:0] }},
	}
	for _, tc := range cases {
		bad := *proof
		bad.Hadamard, bad.Linear = clone(proof.Hadamard), clone(proof.Linear)
		tc.mut(&bad)
		if _, err := bad.Size(); !errors.Is(err, errIncomplete) {
			t.Errorf("%s: Size err = %v", tc.name, err)
		}
		var buf bytes.Buffer
		if n, err := bad.WriteTo(&buf); !errors.Is(err, errIncomplete) || n != 0 {
			t.Errorf("%s: WriteTo wrote %d bytes, err = %v", tc.name, n, err)
		}
		if _, err := bad.MarshalBinary(); err == nil {
			t.Errorf("%s: MarshalBinary accepted the proof", tc.name)
		}
		if err := Verify(c, p, public, &bad); err == nil {
			t.Errorf("%s: Verify accepted the proof", tc.name)
		}
	}
}

// allocBytes reports the bytes allocated while f runs.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestDecoderBoundsAllocation(t *testing.T) {
	// A 48-byte header claiming 2^24 outputs must not make the decoder
	// allocate the 512 MiB they would occupy before it reads any.
	header := func(rows, cols, outputs uint32) []byte {
		b := append([]byte("BZK2"), make([]byte, sha2.Size)...)
		for _, v := range []uint32{rows, cols, outputs} {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	crafted := header(1<<12, 1<<12, 1<<24)
	if len(crafted) != 48 {
		t.Fatalf("crafted blob has %d bytes", len(crafted))
	}
	// Every count of a valid proof, inflated to its maximum and cut off
	// right after: the proof's own sections must not unlock a large
	// allocation either.
	_, _, _, proof := proofForTest(t, 64)
	data, _ := proof.MarshalBinary()
	rows, cols := proof.Commitment.NumRows, proof.Commitment.NumCols
	op := proof.PCSProof
	countAt := map[string]int{
		"outputs": 44,
		"columns": wireBytes(proof) - 4 - len(op.Paths.Siblings)*sha2.Size -
			len(op.Columns)*(4+rows*field.Bytes) - 4,
		"siblings": wireBytes(proof) - 4 - len(op.Paths.Siblings)*sha2.Size,
	}
	blobs := map[string][]byte{"48-byte header": crafted, "huge layout": header(1<<14, 1<<14, 1)}
	for name, at := range countAt {
		b := append([]byte{}, data[:at+4]...)
		binary.LittleEndian.PutUint32(b[at:], math.MaxUint32)
		blobs[name+" count maxed"] = b
	}
	// The largest counts the layout admits, also cut off after the count.
	b := append([]byte{}, data[:countAt["columns"]+4]...)
	binary.LittleEndian.PutUint32(b[countAt["columns"]:], uint32(4*cols))
	blobs["4·cols columns"] = b
	for name, blob := range blobs {
		var back Proof
		var err error
		if n := allocBytes(func() { err = back.UnmarshalBinary(blob) }); n >= 1<<20 {
			t.Fatalf("%s: decoding allocated %d bytes", name, n)
		}
		if err == nil {
			t.Fatalf("%s: decoded", name)
		}
	}
}
