package pcs

import (
	"fmt"

	"batchzk/internal/field"
	"batchzk/internal/transcript"
)

// MultiEvalProof proves evaluations of the committed polynomial at
// several points while sharing one proximity test and one set of opened
// columns across all of them — the batched-opening optimization that
// keeps the proof's Merkle part constant as the number of query points
// grows.
type MultiEvalProof struct {
	TestRow      []field.Element
	CombinedRows [][]field.Element // one eqHiᵀ·M row per point
	Opening
}

// ProveEvalMulti produces one batched proof for all points (each of
// arity NumVars, x_1..x_n order) and returns the evaluation values.
func (s *ProverState) ProveEvalMulti(points [][]field.Element, tr *transcript.Transcript) (*MultiEvalProof, []field.Element, error) {
	if len(points) == 0 {
		return nil, nil, fmt.Errorf("pcs: no evaluation points")
	}
	n := s.comm.NumVars()
	tr.AppendDigest("pcs/root", s.comm.Root)
	tr.AppendUint64("pcs/numpoints", uint64(len(points)))
	for _, pt := range points {
		if len(pt) != n {
			return nil, nil, fmt.Errorf("pcs: point arity %d, want %d", len(pt), n)
		}
		tr.AppendElements("pcs/point", pt)
	}

	gamma := tr.ChallengeElements("pcs/gamma", s.params.NumRows)
	testRow := combineRows(gamma, s.rows, s.params.NumCols)
	tr.AppendElements("pcs/testrow", testRow)

	proof := &MultiEvalProof{TestRow: testRow}
	values := make([]field.Element, len(points))
	for i, pt := range points {
		lo, hi := splitPoint(pt, s.params.NumCols)
		eqHi := eqTableOf(hi)
		combined := combineRows(eqHi, s.rows, s.params.NumCols)
		tr.AppendElements("pcs/evalrow", combined)
		proof.CombinedRows = append(proof.CombinedRows, combined)
		values[i] = field.InnerProduct(combined, eqTableOf(lo))
	}

	op, err := s.open(tr)
	if err != nil {
		return nil, nil, err
	}
	proof.Opening = op
	return proof, values, nil
}

// VerifyEvalMulti checks a batched evaluation proof against a commitment,
// the points, and the claimed values.
func VerifyEvalMulti(comm Commitment, points [][]field.Element, values []field.Element, proof *MultiEvalProof, params Params, tr *transcript.Transcript) error {
	enc, err := layoutEncoder(comm, params)
	if err != nil {
		return err
	}
	if len(points) == 0 || len(points) != len(values) {
		return fmt.Errorf("pcs: %d points vs %d values", len(points), len(values))
	}
	if proof == nil || len(proof.CombinedRows) != len(points) || len(proof.TestRow) != params.NumCols {
		return fmt.Errorf("%w: malformed multi-eval proof", ErrReject)
	}

	n := comm.NumVars()
	tr.AppendDigest("pcs/root", comm.Root)
	tr.AppendUint64("pcs/numpoints", uint64(len(points)))
	for _, pt := range points {
		if len(pt) != n {
			return fmt.Errorf("pcs: point arity %d, want %d", len(pt), n)
		}
		tr.AppendElements("pcs/point", pt)
	}
	gamma := tr.ChallengeElements("pcs/gamma", params.NumRows)
	tr.AppendElements("pcs/testrow", proof.TestRow)

	coeffs := [][]field.Element{gamma}
	rows := [][]field.Element{proof.TestRow}
	for i, pt := range points {
		if len(proof.CombinedRows[i]) != params.NumCols {
			return fmt.Errorf("%w: eval row %d malformed", ErrReject, i)
		}
		tr.AppendElements("pcs/evalrow", proof.CombinedRows[i])
		_, hi := splitPoint(pt, params.NumCols)
		coeffs = append(coeffs, eqTableOf(hi))
		rows = append(rows, proof.CombinedRows[i])
	}
	if err := verifyOpening(tr, comm, params, enc, &proof.Opening, coeffs, rows); err != nil {
		return err
	}

	for i, pt := range points {
		lo, _ := splitPoint(pt, params.NumCols)
		want := field.InnerProduct(proof.CombinedRows[i], eqTableOf(lo))
		if !want.Equal(&values[i]) {
			return fmt.Errorf("%w: point %d value mismatch", ErrReject, i)
		}
	}
	return nil
}
