package pcs

import (
	"errors"
	"fmt"
	"slices"

	"batchzk/internal/encoder"
	"batchzk/internal/field"
	"batchzk/internal/merkle"
	"batchzk/internal/sha2"
	"batchzk/internal/transcript"
)

// Opening is the column half of an evaluation proof: the distinct
// challenged columns of the encoded matrix in ascending index order, and
// one Merkle multiproof whose shared paths authenticate all of them. No
// leaf digests travel: the verifier re-hashes the column values.
type Opening struct {
	Columns [][]field.Element // Columns[k] is encoded column Paths.Indices[k]
	Paths   merkle.MultiProof
}

// OpeningBytes is the wire size of one opening of a rows×cols layout
// that sends k distinct columns and s sibling digests: the two
// length-prefixed combined rows (test and evaluation), the column count,
// k indices, k·rows column values, the sibling count and the siblings.
func OpeningBytes(rows, cols, k, s int) int {
	return 2*(4+cols*field.Bytes) + 4 + k*(4+rows*field.Bytes) + 4 + s*sha2.Size
}

// MaxOpeningBytes bounds OpeningBytes for t column challenges: at most t
// distinct columns, sharing at most merkle.MaxMultiSiblings siblings in
// the tree over the RateInv·cols encoded columns.
func MaxOpeningBytes(rows, cols, t int) int {
	return OpeningBytes(rows, cols, t, merkle.MaxMultiSiblings(t, encoder.RateInv*cols))
}

// openColumns draws the column challenge and answers it: tree proves the
// distinct challenged columns with shared paths, and gather fills them
// (uniq ascending, one rows-tall slice per index).
func openColumns(tr *transcript.Transcript, p Params, tree *merkle.Tree,
	gather func(uniq []int, cols [][]field.Element) error) (Opening, error) {
	mp, err := tree.ProveMulti(tr.ChallengeIndices("pcs/cols", p.NumOpenings, tree.NumLeaves()))
	if err != nil {
		return Opening{}, err
	}
	flat := make([]field.Element, len(mp.Indices)*p.NumRows)
	cols := make([][]field.Element, len(mp.Indices))
	for k := range cols {
		cols[k] = flat[k*p.NumRows : (k+1)*p.NumRows : (k+1)*p.NumRows]
	}
	if err := gather(mp.Indices, cols); err != nil {
		return Opening{}, err
	}
	return Opening{Columns: cols, Paths: *mp}, nil
}

// verifyOpening draws the column challenge and checks op against it: the
// opened indices must be exactly the distinct challenged ones, the
// re-hashed columns must authenticate against the root, and for every
// opened column and every i, coeffs[i]ᵀ·column must equal the encoding
// of rows[i] at that index — the proximity test for i = 0 and the
// evaluation checks after it. Linearity of the code makes every check
// hold for an honest matrix.
func verifyOpening(tr *transcript.Transcript, comm Commitment, p Params, enc *encoder.Encoder,
	op *Opening, coeffs, rows [][]field.Element) error {
	uniq := tr.ChallengeIndices("pcs/cols", p.NumOpenings, enc.CodewordLen())
	slices.Sort(uniq)
	uniq = slices.Compact(uniq)
	if len(op.Columns) != len(uniq) || len(op.Paths.Indices) != len(uniq) {
		return fmt.Errorf("%w: %d opened columns, challenge set has %d", ErrReject, len(op.Columns), len(uniq))
	}
	if op.Paths.NumLeaves != enc.CodewordLen() {
		return fmt.Errorf("%w: paths for a %d-leaf tree, want %d", ErrReject, op.Paths.NumLeaves, enc.CodewordLen())
	}
	leaves := make([]sha2.Digest, len(uniq))
	for k, j := range uniq {
		if op.Paths.Indices[k] != j {
			return fmt.Errorf("%w: column %d opened at index %d, challenged %d", ErrReject, k, op.Paths.Indices[k], j)
		}
		if len(op.Columns[k]) != comm.NumRows {
			return fmt.Errorf("%w: column %d has %d values", ErrReject, j, len(op.Columns[k]))
		}
		leaves[k] = merkle.HashElements(op.Columns[k])
	}
	if !merkle.VerifyMulti(comm.Root, &op.Paths, leaves) {
		return fmt.Errorf("%w: shared Merkle paths invalid", ErrReject)
	}
	for i, row := range rows {
		cw, err := enc.Encode(row)
		if err != nil {
			return err
		}
		for k, j := range uniq {
			if got := field.InnerProduct(coeffs[i], op.Columns[k]); !got.Equal(&cw[j]) {
				if i == 0 {
					return fmt.Errorf("%w: column %d fails proximity check", ErrReject, j)
				}
				return fmt.Errorf("%w: column %d fails evaluation check %d", ErrReject, j, i)
			}
		}
	}
	return nil
}

// ErrReject is returned when an evaluation proof fails.
var ErrReject = errors.New("pcs: proof rejected")
