// Package pcs implements the Brakedown/Orion-style polynomial commitment
// scheme that BatchZK's proof generation pipeline computes (Figure 7 of
// the paper): the committed vector is arranged as a matrix, every row is
// encoded with the linear-time encoder, the columns of the encoded matrix
// are hashed into a Merkle tree, and evaluation/proximity claims are
// settled by random row combinations plus spot-checked column openings.
//
// The commitment is binding under the collision resistance of SHA-256 and
// the minimum distance of the code; it is not hiding (the paper's
// protocols share this property in their unmasked form — see DESIGN.md).
//
// Index convention: for a committed vector of length rows·cols, entry
// index b = r·cols + c, so the low log₂(cols) variables of the multilinear
// extension select the column and the high variables select the row. The
// eq table then factors as eqLo ⊗ eqHi, which is what makes the
// matrix-shaped evaluation protocol work.
package pcs

import (
	"fmt"
	"math/bits"

	"batchzk/internal/encoder"
	"batchzk/internal/field"
	"batchzk/internal/merkle"
	"batchzk/internal/par"
	"batchzk/internal/poly"
	"batchzk/internal/sha2"
	"batchzk/internal/transcript"
)

// Parallel grain thresholds (package vars so the bit-identity tests can
// force the parallel paths at small sizes).
var (
	parallelCommitRows = 2    // rows encoded in parallel in Commit
	parallelCombine    = 1024 // matrix cells below which combineRows is serial
)

// Params configures the matrix layout and security of the scheme.
type Params struct {
	NumRows     int // power of two
	NumCols     int // power of two, ≥ encoder base size
	NumOpenings int // spot-checked columns (t)
	Enc         encoder.Params
}

// DefaultNumOpenings is the default column-opening count.
const DefaultNumOpenings = 64

// NewParams lays out a vector of length 2^logN for the smallest proof:
// of the power-of-two splits rows×cols with cols at least the encoder's
// base size, it picks the one minimizing MaxOpeningBytes at the default
// opening count. An opening sends t columns rows tall and two rows cols
// wide plus the shared paths of a RateInv·cols-leaf tree, so the optimum
// balances t·rows against 2·cols (a 2^15 vector gets 32×1024, a 2^11
// vector 8×256). Soundness depends on t and the code's distance, not on
// the aspect ratio.
func NewParams(logN int) Params {
	enc := encoder.DefaultParams()
	logCols := logN // inputs below the encoder base: one row
	best := 0
	for lc := bits.TrailingZeros(uint(enc.BaseSize)); lc <= logN; lc++ {
		size := MaxOpeningBytes(1<<(logN-lc), 1<<lc, DefaultNumOpenings)
		if best == 0 || size < best {
			logCols, best = lc, size
		}
	}
	return Params{
		NumRows:     1 << (logN - logCols),
		NumCols:     1 << logCols,
		NumOpenings: DefaultNumOpenings,
		Enc:         enc,
	}
}

// Validate checks structural parameter constraints.
func (p Params) Validate() error {
	if p.NumRows <= 0 || p.NumRows&(p.NumRows-1) != 0 {
		return fmt.Errorf("pcs: rows %d not a positive power of two", p.NumRows)
	}
	if p.NumCols <= 0 || p.NumCols&(p.NumCols-1) != 0 {
		return fmt.Errorf("pcs: cols %d not a positive power of two", p.NumCols)
	}
	if p.NumOpenings <= 0 {
		return fmt.Errorf("pcs: need at least one column opening")
	}
	return nil
}

// Commitment is the verifier-side commitment: a Merkle root over the
// encoded matrix's columns plus the public layout.
type Commitment struct {
	Root    sha2.Digest
	NumRows int
	NumCols int
}

// NumVars returns the arity of the committed multilinear polynomial.
func (c *Commitment) NumVars() int {
	return bits.TrailingZeros(uint(c.NumRows)) + bits.TrailingZeros(uint(c.NumCols))
}

// ProverState holds everything the prover needs to answer evaluation
// queries: the message matrix, the encoded matrix, and the column tree.
type ProverState struct {
	params  Params
	enc     *encoder.Encoder
	rows    [][]field.Element // message matrix M: NumRows × NumCols
	encoded [][]field.Element // U: NumRows × (RateInv·NumCols)
	tree    *merkle.Tree
	comm    Commitment
}

// Commitment returns the public commitment.
func (s *ProverState) Commitment() Commitment { return s.comm }

// Commit arranges values (length NumRows·NumCols) into a matrix, encodes
// every row, and Merkle-commits the encoded columns.
func Commit(values []field.Element, params Params) (*ProverState, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	want := params.NumRows * params.NumCols
	if len(values) != want {
		return nil, fmt.Errorf("pcs: %d values, layout wants %d", len(values), want)
	}
	enc, err := encoder.Cached(params.NumCols, params.Enc)
	if err != nil {
		return nil, err
	}
	s := &ProverState{params: params, enc: enc}
	s.rows = make([][]field.Element, params.NumRows)
	s.encoded = make([][]field.Element, params.NumRows)
	// Row-parallel Spielman encoding: every row encodes independently
	// (the Encoder is safe for concurrent use once constructed).
	w := 0
	if params.NumRows < parallelCommitRows {
		w = 1
	}
	k := par.Chunks(w, params.NumRows)
	encErrs := make([]error, k)
	par.ForChunks(k, params.NumRows, func(c, lo, hi int) {
		for r := lo; r < hi; r++ {
			s.rows[r] = values[r*params.NumCols : (r+1)*params.NumCols]
			cw, err := enc.Encode(s.rows[r])
			if err != nil {
				encErrs[c] = err
				return
			}
			s.encoded[r] = cw
		}
	})
	for _, err := range encErrs {
		if err != nil {
			return nil, err
		}
	}
	// Columns of U become Merkle leaves: gather each column into a
	// per-worker scratch buffer and hash it with a reused hasher, without
	// materializing the transposed matrix.
	cwLen := enc.CodewordLen()
	leaves := make([]sha2.Digest, cwLen)
	hw := 0
	if cwLen*params.NumRows < parallelCombine {
		hw = 1
	}
	par.ForScratch(hw, cwLen, func(sc *par.Scratch, lo, hi int) {
		col := sc.Elements(0, params.NumRows)
		for j := lo; j < hi; j++ {
			for r := 0; r < params.NumRows; r++ {
				col[r] = s.encoded[r][j]
			}
			leaves[j] = merkle.HashElementsWith(sc.Hasher(), col)
		}
	})
	tree, err := merkle.BuildFromDigests(leaves)
	if err != nil {
		return nil, err
	}
	s.tree = tree
	s.comm = Commitment{Root: tree.Root(), NumRows: params.NumRows, NumCols: params.NumCols}
	return s, nil
}

// EvalProof proves that the committed polynomial evaluates to a claimed
// value at a point: a proximity-test row, the evaluation row, and the
// opened columns supporting both.
type EvalProof struct {
	TestRow     []field.Element // γᵀ·M for the transcript-derived γ
	CombinedRow []field.Element // eqHiᵀ·M for the query point
	Opening
}

// splitPoint separates an evaluation point into (column vars, row vars).
func splitPoint(point []field.Element, numCols int) (lo, hi []field.Element) {
	logCols := bits.TrailingZeros(uint(numCols))
	return point[:logCols], point[logCols:]
}

// combineRows computes wᵀ·M over the message matrix. Chunking is by
// column: each chunk owns a disjoint out[lo:hi] window and accumulates
// rows in the same top-to-bottom order as the serial loop, so the result
// is bit-identical for any chunk count.
func combineRows(w []field.Element, rows [][]field.Element, width int) []field.Element {
	out := make([]field.Element, width)
	pw := 0
	if width*len(rows) < parallelCombine {
		pw = 1
	}
	par.ForWidth(pw, width, func(lo, hi int) {
		var t field.Element
		for r := range rows {
			if w[r].IsZero() {
				continue
			}
			row := rows[r]
			for c := lo; c < hi; c++ {
				t.Mul(&w[r], &row[c])
				out[c].Add(&out[c], &t)
			}
		}
	})
	return out
}

// ProveEval produces an evaluation proof for the committed polynomial at
// point (length NumVars, x_1..x_n order) and returns the evaluation value.
// The transcript binds the commitment, the point, and both combined rows
// before the column challenge, making the openings non-adaptive.
func (s *ProverState) ProveEval(point []field.Element, tr *transcript.Transcript) (*EvalProof, field.Element, error) {
	n := s.comm.NumVars()
	if len(point) != n {
		return nil, field.Element{}, fmt.Errorf("pcs: point arity %d, want %d", len(point), n)
	}
	tr.AppendDigest("pcs/root", s.comm.Root)
	tr.AppendElements("pcs/point", point)

	gamma := tr.ChallengeElements("pcs/gamma", s.params.NumRows)
	testRow := combineRows(gamma, s.rows, s.params.NumCols)
	tr.AppendElements("pcs/testrow", testRow)

	lo, hi := splitPoint(point, s.params.NumCols)
	eqHi := eqTableOf(hi)
	combined := combineRows(eqHi, s.rows, s.params.NumCols)
	tr.AppendElements("pcs/evalrow", combined)

	op, err := s.open(tr)
	if err != nil {
		return nil, field.Element{}, err
	}
	value := field.InnerProduct(combined, eqTableOf(lo))
	return &EvalProof{TestRow: testRow, CombinedRow: combined, Opening: op}, value, nil
}

// open answers the column challenge from the retained encoded matrix.
func (s *ProverState) open(tr *transcript.Transcript) (Opening, error) {
	return openColumns(tr, s.params, s.tree, func(uniq []int, cols [][]field.Element) error {
		for k, j := range uniq {
			for r := range cols[k] {
				cols[k][r] = s.encoded[r][j]
			}
		}
		return nil
	})
}

// layoutEncoder checks that a commitment matches the verifier's
// parameters and returns the encoder of their row length.
func layoutEncoder(comm Commitment, params Params) (*encoder.Encoder, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if comm.NumRows != params.NumRows || comm.NumCols != params.NumCols {
		return nil, fmt.Errorf("pcs: commitment layout %dx%d does not match params %dx%d",
			comm.NumRows, comm.NumCols, params.NumRows, params.NumCols)
	}
	return encoder.Cached(params.NumCols, params.Enc)
}

// VerifyEval checks an evaluation proof against a commitment, point, and
// claimed value. The verifier re-encodes the two combined rows (O(cols)
// work) and checks them against the opened columns.
func VerifyEval(comm Commitment, point []field.Element, value field.Element, proof *EvalProof, params Params, tr *transcript.Transcript) error {
	enc, err := layoutEncoder(comm, params)
	if err != nil {
		return err
	}
	if len(point) != comm.NumVars() {
		return fmt.Errorf("pcs: point arity %d, want %d", len(point), comm.NumVars())
	}
	if proof == nil || len(proof.TestRow) != params.NumCols || len(proof.CombinedRow) != params.NumCols {
		return fmt.Errorf("%w: malformed proof rows", ErrReject)
	}

	tr.AppendDigest("pcs/root", comm.Root)
	tr.AppendElements("pcs/point", point)
	gamma := tr.ChallengeElements("pcs/gamma", params.NumRows)
	tr.AppendElements("pcs/testrow", proof.TestRow)
	tr.AppendElements("pcs/evalrow", proof.CombinedRow)

	lo, hi := splitPoint(point, params.NumCols)
	err = verifyOpening(tr, comm, params, enc, &proof.Opening,
		[][]field.Element{gamma, eqTableOf(hi)}, [][]field.Element{proof.TestRow, proof.CombinedRow})
	if err != nil {
		return err
	}
	want := field.InnerProduct(proof.CombinedRow, eqTableOf(lo))
	if !want.Equal(&value) {
		return fmt.Errorf("%w: combined row does not yield the claimed value", ErrReject)
	}
	return nil
}

// eqTableOf is poly.EqTable (which returns [1] for an empty point).
func eqTableOf(point []field.Element) []field.Element {
	return poly.EqTable(point)
}
