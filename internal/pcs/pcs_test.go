package pcs

import (
	"errors"
	"math/bits"
	"slices"
	"testing"

	"batchzk/internal/field"
	"batchzk/internal/poly"
	"batchzk/internal/sha2"
	"batchzk/internal/transcript"
)

func testParams(logN int) Params {
	p := NewParams(logN)
	p.NumOpenings = 16 // keep unit tests fast; soundness knobs tested separately
	return p
}

func TestNewParamsLayout(t *testing.T) {
	for logN := 4; logN <= 22; logN++ {
		p := NewParams(logN)
		if err := p.Validate(); err != nil {
			t.Fatalf("logN=%d: %v", logN, err)
		}
		if p.NumRows*p.NumCols != 1<<logN {
			t.Fatalf("logN=%d: layout %dx%d", logN, p.NumRows, p.NumCols)
		}
		if p.NumCols < p.Enc.BaseSize {
			t.Fatalf("logN=%d: cols below encoder base", logN)
		}
		// The layout is the proof-size argmin over every admissible split.
		got := MaxOpeningBytes(p.NumRows, p.NumCols, p.NumOpenings)
		for cols := p.Enc.BaseSize; cols <= 1<<logN; cols *= 2 {
			if other := MaxOpeningBytes(1<<logN/cols, cols, p.NumOpenings); other < got {
				t.Fatalf("logN=%d: %dx%d opens in %d B, %dx%d in %d B",
					logN, p.NumRows, p.NumCols, got, 1<<logN/cols, cols, other)
			}
		}
	}
	for logN, want := range map[int][2]int{15: {32, 1024}, 11: {8, 256}} {
		if p := NewParams(logN); p.NumRows != want[0] || p.NumCols != want[1] {
			t.Fatalf("logN=%d: layout %dx%d, want %dx%d", logN, p.NumRows, p.NumCols, want[0], want[1])
		}
	}
}

func TestOpeningBytesMatchesProofs(t *testing.T) {
	// OpeningBytes is exact for the counts a proof carries, and
	// MaxOpeningBytes bounds every proof of the layout.
	for _, logN := range []int{8, 11, 13} {
		p := NewParams(logN)
		st, err := Commit(field.RandVector(1<<logN), p)
		if err != nil {
			t.Fatal(err)
		}
		proof, _, err := st.ProveEval(field.RandVector(logN), transcript.New("pcs"))
		if err != nil {
			t.Fatal(err)
		}
		k, s := len(proof.Columns), len(proof.Paths.Siblings)
		want := 2*(4+len(proof.TestRow)*field.Bytes) + 4 + k*(4+p.NumRows*field.Bytes) + 4 + s*sha2.Size
		if got := OpeningBytes(p.NumRows, p.NumCols, k, s); got != want {
			t.Fatalf("logN=%d: OpeningBytes %d, want %d", logN, got, want)
		}
		if bound := MaxOpeningBytes(p.NumRows, p.NumCols, p.NumOpenings); want > bound {
			t.Fatalf("logN=%d: opening %d B exceeds the bound %d B", logN, want, bound)
		}
	}
}

func TestValidate(t *testing.T) {
	p := testParams(8)
	bad := p
	bad.NumRows = 3
	if bad.Validate() == nil {
		t.Fatal("accepted non-power-of-two rows")
	}
	bad = p
	bad.NumCols = 0
	if bad.Validate() == nil {
		t.Fatal("accepted zero cols")
	}
	bad = p
	bad.NumOpenings = 0
	if bad.Validate() == nil {
		t.Fatal("accepted zero openings")
	}
}

func TestCommitValidation(t *testing.T) {
	p := testParams(8)
	if _, err := Commit(field.RandVector(100), p); err == nil {
		t.Fatal("accepted wrong vector length")
	}
}

func TestEvalRoundTrip(t *testing.T) {
	for _, logN := range []int{8, 10, 12} {
		p := testParams(logN)
		values := field.RandVector(1 << logN)
		st, err := Commit(values, p)
		if err != nil {
			t.Fatal(err)
		}
		comm := st.Commitment()
		if comm.NumVars() != logN {
			t.Fatalf("NumVars = %d", comm.NumVars())
		}
		point := field.RandVector(logN)
		proof, value, err := st.ProveEval(point, transcript.New("pcs"))
		if err != nil {
			t.Fatal(err)
		}
		// The claimed value must match direct multilinear evaluation.
		m, _ := poly.NewMultilinear(values)
		want, _ := m.Evaluate(point)
		if !want.Equal(&value) {
			t.Fatalf("logN=%d: PCS value != MLE evaluation", logN)
		}
		if err := VerifyEval(comm, point, value, proof, p, transcript.New("pcs")); err != nil {
			t.Fatalf("logN=%d: verify: %v", logN, err)
		}
	}
}

func TestVerifyRejectsWrongValue(t *testing.T) {
	p := testParams(10)
	values := field.RandVector(1 << 10)
	st, _ := Commit(values, p)
	point := field.RandVector(10)
	proof, value, _ := st.ProveEval(point, transcript.New("pcs"))
	var bad field.Element
	bad.Add(&value, &[]field.Element{field.One()}[0])
	err := VerifyEval(st.Commitment(), point, bad, proof, p, transcript.New("pcs"))
	if !errors.Is(err, ErrReject) {
		t.Fatalf("wrong value accepted: %v", err)
	}
}

func TestVerifyRejectsTamperedProof(t *testing.T) {
	p := testParams(10)
	values := field.RandVector(1 << 10)
	st, _ := Commit(values, p)
	point := field.RandVector(10)
	proof, value, _ := st.ProveEval(point, transcript.New("pcs"))
	comm := st.Commitment()

	// Tampered evaluation row.
	bad := *proof
	bad.CombinedRow = append([]field.Element{}, proof.CombinedRow...)
	bad.CombinedRow[3] = field.NewElement(123)
	if err := VerifyEval(comm, point, value, &bad, p, transcript.New("pcs")); err == nil {
		t.Fatal("tampered CombinedRow accepted")
	}

	// Tampered test row.
	bad = *proof
	bad.TestRow = append([]field.Element{}, proof.TestRow...)
	bad.TestRow[0] = field.NewElement(5)
	if err := VerifyEval(comm, point, value, &bad, p, transcript.New("pcs")); err == nil {
		t.Fatal("tampered TestRow accepted")
	}

	// Tampered opened column value.
	bad = *proof
	bad.Opening = cloneOpening(proof.Opening)
	bad.Columns[2][0] = field.NewElement(77)
	if err := VerifyEval(comm, point, value, &bad, p, transcript.New("pcs")); err == nil {
		t.Fatal("tampered column accepted")
	}

	// Dropped column.
	bad = *proof
	bad.Opening = cloneOpening(proof.Opening)
	last := len(bad.Columns) - 1
	bad.Columns, bad.Paths.Indices = bad.Columns[:last], bad.Paths.Indices[:last]
	if err := VerifyEval(comm, point, value, &bad, p, transcript.New("pcs")); err == nil {
		t.Fatal("dropped column accepted")
	}

	// Wrong root.
	badComm := comm
	badComm.Root[0] ^= 1
	if err := VerifyEval(badComm, point, value, proof, p, transcript.New("pcs")); err == nil {
		t.Fatal("wrong root accepted")
	}

	// Nil proof and arity errors.
	if err := VerifyEval(comm, point, value, nil, p, transcript.New("pcs")); err == nil {
		t.Fatal("nil proof accepted")
	}
	if err := VerifyEval(comm, point[:4], value, proof, p, transcript.New("pcs")); err == nil {
		t.Fatal("short point accepted")
	}
	wrongLayout := p
	wrongLayout.NumRows *= 2
	if err := VerifyEval(comm, point, value, proof, wrongLayout, transcript.New("pcs")); err == nil {
		t.Fatal("mismatched layout accepted")
	}
}

// TestCompactEvalRoundTrip checks the shared-path ("compact") opening at
// a production layout: the opened indices are the distinct challenged
// columns in ascending order, the value is the MLE evaluation, the proof
// verifies, and the shared paths carry fewer siblings than t independent
// paths would.
func TestCompactEvalRoundTrip(t *testing.T) {
	p := NewParams(11)
	values := field.RandVector(1 << 11)
	st, err := Commit(values, p)
	if err != nil {
		t.Fatal(err)
	}
	point := field.RandVector(11)
	proof, value, err := st.ProveEval(point, transcript.New("pcsc"))
	if err != nil {
		t.Fatal(err)
	}
	m, _ := poly.NewMultilinear(values)
	want, _ := m.Evaluate(point)
	if !want.Equal(&value) {
		t.Fatal("shared-path opening value != MLE evaluation")
	}
	if err := VerifyEval(st.Commitment(), point, value, proof, p, transcript.New("pcsc")); err != nil {
		t.Fatal(err)
	}
	idx := proof.Paths.Indices
	if !slices.IsSorted(idx) || len(slices.Compact(slices.Clone(idx))) != len(idx) {
		t.Fatalf("opened indices %v not ascending and distinct", idx)
	}
	if len(proof.Columns) != len(idx) || len(idx) > p.NumOpenings {
		t.Fatalf("%d columns for %d indices, t = %d", len(proof.Columns), len(idx), p.NumOpenings)
	}
	shared, indep := len(proof.Paths.Siblings), len(idx)*bits.Len(uint(4*p.NumCols-1))
	if shared >= indep {
		t.Fatalf("shared paths (%d siblings) not smaller than independent (%d)", shared, indep)
	}
	t.Logf("path digests: %d shared vs %d independent (%.0f%% saved)",
		shared, indep, 100*(1-float64(shared)/float64(indep)))
}

// TestCompactEvalRejections checks that every mutation of the
// shared-path opening is rejected.
func TestCompactEvalRejections(t *testing.T) {
	p := testParams(10)
	st, _ := Commit(field.RandVector(1<<10), p)
	point := field.RandVector(10)
	proof, value, _ := st.ProveEval(point, transcript.New("pcsc"))
	comm := st.Commitment()

	opening := func(mutate func(op *Opening)) *EvalProof {
		bad := *proof
		bad.Opening = cloneOpening(proof.Opening)
		mutate(&bad.Opening)
		return &bad
	}
	notOpened := 0
	for slices.Contains(proof.Paths.Indices, notOpened) {
		notOpened++
	}
	last := len(proof.Columns) - 1
	for name, bad := range map[string]*EvalProof{
		"changed column value": opening(func(op *Opening) { op.Columns[2][0] = field.NewElement(77) }),
		"swapped column values": opening(func(op *Opening) {
			op.Columns[0][1], op.Columns[1][1] = op.Columns[1][1], op.Columns[0][1]
		}),
		"swapped columns":  opening(func(op *Opening) { op.Columns[0], op.Columns[1] = op.Columns[1], op.Columns[0] }),
		"dropped sibling":  opening(func(op *Opening) { op.Paths.Siblings = op.Paths.Siblings[1:] }),
		"extra sibling":    opening(func(op *Opening) { op.Paths.Siblings = append(op.Paths.Siblings, op.Paths.Siblings[0]) }),
		"changed sibling":  opening(func(op *Opening) { op.Paths.Siblings[0][7] ^= 1 }),
		"duplicate index":  opening(func(op *Opening) { op.Paths.Indices[1] = op.Paths.Indices[0] }),
		"out-of-set index": opening(func(op *Opening) { op.Paths.Indices[0] = notOpened }),
		"missing column": opening(func(op *Opening) {
			op.Columns, op.Paths.Indices = op.Columns[:last], op.Paths.Indices[:last]
		}),
		"missing values":  opening(func(op *Opening) { op.Columns = op.Columns[:last] }),
		"short column":    opening(func(op *Opening) { op.Columns[0] = op.Columns[0][1:] }),
		"wrong tree size": opening(func(op *Opening) { op.Paths.NumLeaves *= 2 }),
	} {
		if err := VerifyEval(comm, point, value, bad, p, transcript.New("pcsc")); !errors.Is(err, ErrReject) {
			t.Fatalf("%s accepted: %v", name, err)
		}
	}
}

func TestVerifyRejectsOtherColumnSet(t *testing.T) {
	// Every encoded column of the zero matrix is the same, so an honest,
	// fully authenticated opening of any column set passes the Merkle and
	// linear checks: only the challenge-set check rejects a set other
	// than the challenged one.
	p := testParams(10)
	st, _ := Commit(make([]field.Element, 1<<10), p)
	point := field.RandVector(10)
	proof, value, _ := st.ProveEval(point, transcript.New("pcs"))
	opened := proof.Paths.Indices
	j := 0
	for slices.Contains(opened, j) {
		j++
	}
	mp, err := st.tree.ProveMulti(append(slices.Clone(opened[:len(opened)-1]), j))
	if err != nil {
		t.Fatal(err)
	}
	bad := *proof
	bad.Paths = *mp
	if err := VerifyEval(st.Commitment(), point, value, &bad, p, transcript.New("pcs")); !errors.Is(err, ErrReject) {
		t.Fatalf("opening of another column set accepted: %v", err)
	}
}

// cloneOpening deep-copies an opening so a test can tamper with it.
func cloneOpening(op Opening) Opening {
	out := Opening{Paths: op.Paths}
	out.Paths.Indices = slices.Clone(op.Paths.Indices)
	out.Paths.Siblings = slices.Clone(op.Paths.Siblings)
	for _, col := range op.Columns {
		out.Columns = append(out.Columns, slices.Clone(col))
	}
	return out
}

func TestSoundnessWrongMatrix(t *testing.T) {
	// Commit to v1, then try to convince the verifier of v2's evaluation
	// by substituting v2's rows in the proof: the Merkle/column checks
	// must catch it.
	p := testParams(10)
	v1 := field.RandVector(1 << 10)
	v2 := field.RandVector(1 << 10)
	st1, _ := Commit(v1, p)
	st2, _ := Commit(v2, p)
	point := field.RandVector(10)
	proof2, value2, _ := st2.ProveEval(point, transcript.New("pcs"))
	err := VerifyEval(st1.Commitment(), point, value2, proof2, p, transcript.New("pcs"))
	if err == nil {
		t.Fatal("proof for a different committed matrix accepted")
	}
}

func TestProveEvalArity(t *testing.T) {
	p := testParams(8)
	st, _ := Commit(field.RandVector(1<<8), p)
	if _, _, err := st.ProveEval(field.RandVector(3), transcript.New("pcs")); err == nil {
		t.Fatal("short point accepted by prover")
	}
}

func TestDeterministicCommitment(t *testing.T) {
	p := testParams(8)
	values := field.RandVector(1 << 8)
	s1, _ := Commit(values, p)
	s2, _ := Commit(values, p)
	if s1.Commitment().Root != s2.Commitment().Root {
		t.Fatal("commitment not deterministic")
	}
}

func TestSingleRowLayout(t *testing.T) {
	// Degenerate layout: one row (no row variables).
	p := Params{NumRows: 1, NumCols: 64, NumOpenings: 8, Enc: testParams(8).Enc}
	values := field.RandVector(64)
	st, err := Commit(values, p)
	if err != nil {
		t.Fatal(err)
	}
	point := field.RandVector(6)
	proof, value, err := st.ProveEval(point, transcript.New("pcs"))
	if err != nil {
		t.Fatal(err)
	}
	m, _ := poly.NewMultilinear(values)
	want, _ := m.Evaluate(point)
	if !want.Equal(&value) {
		t.Fatal("single-row value mismatch")
	}
	if err := VerifyEval(st.Commitment(), point, value, proof, p, transcript.New("pcs")); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCommit4096(b *testing.B) {
	p := testParams(12)
	values := field.RandVector(1 << 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Commit(values, p); err != nil {
			b.Fatal(err)
		}
	}
}
