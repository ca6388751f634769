// Package encoder implements the Spielman-style linear-time error-
// correcting encoder used by Orion/Brakedown-style ZKP protocols (§2.4 and
// §3.3 of the BatchZK paper).
//
// The encoder is recursive: a stage with input vector x (length n)
// multiplies x by a sparse "first" matrix to get a half-length vector,
// encodes that recursively into w, multiplies w by a sparse "second"
// matrix to get a parity vector v, and outputs (x ‖ w ‖ v). With the
// halving parameter α = 1/2 and parity sized |v| = n, every stage's
// codeword is exactly 4× its message — a rate-1/4 systematic code whose
// sizes stay powers of two (convenient for the Merkle module that hashes
// its columns).
//
// EncodeIterative is the pipeline-shaped implementation from Figure 6 of
// the paper: a forward pass of first-matrix multiplications from large to
// small, then a backward pass of second-matrix multiplications from small
// to large. It is bit-identical to the recursive reference Encode, which
// the tests enforce.
//
// Sparse matrices are sampled deterministically from a seed; every output
// row has fewer than 256 non-zero entries (the property §3.3 exploits to
// encode row lengths in a single byte for bucket sorting).
package encoder

import (
	"fmt"
	"math/rand"
	"sync"

	"batchzk/internal/field"
	"batchzk/internal/par"
)

// parallelRows is the output-row count below which MulVec runs serially
// (a row is ~a dozen multiply-adds; tiny stages are not worth chunking).
// Package var so the bit-identity tests can force the parallel path.
var parallelRows = 256

// RateInv is the codeword expansion factor: |codeword| = RateInv · |message|.
const RateInv = 4

// MaxRowWeight bounds the non-zeros per output row (must fit in one byte).
const MaxRowWeight = 255

// Entry is one non-zero coefficient of a sparse matrix row.
type Entry struct {
	Col   int
	Coeff field.Element
}

// SparseMatrix is a row-major sparse matrix: Rows[j] lists the non-zeros
// contributing to output coordinate j (the paper's "right vertices are
// rows" convention, which maps one GPU thread per output row).
type SparseMatrix struct {
	InDim  int
	OutDim int
	Rows   [][]Entry
}

// MulVec computes out[j] = Σ_e e.Coeff · x[e.Col] for every row j.
func (m *SparseMatrix) MulVec(x []field.Element) ([]field.Element, error) {
	out := make([]field.Element, m.OutDim)
	if err := m.MulVecInto(out, x); err != nil {
		return nil, err
	}
	return out, nil
}

// MulVecInto is MulVec into a caller-provided (zeroed) output buffer of
// length OutDim. Rows are independent — one output coordinate per row,
// the paper's one-GPU-thread-per-row mapping — so the row loop runs
// in parallel chunks; each row accumulates its entries in order, making
// the result bit-identical to the serial loop for any chunking.
func (m *SparseMatrix) MulVecInto(out, x []field.Element) error {
	if len(x) != m.InDim {
		return fmt.Errorf("encoder: input length %d, matrix expects %d", len(x), m.InDim)
	}
	if len(out) != m.OutDim {
		return fmt.Errorf("encoder: output length %d, matrix produces %d", len(out), m.OutDim)
	}
	w := 0
	if m.OutDim < parallelRows {
		w = 1
	}
	par.ForWidth(w, m.OutDim, func(lo, hi int) {
		var t field.Element
		for j := lo; j < hi; j++ {
			for _, e := range m.Rows[j] {
				t.Mul(&e.Coeff, &x[e.Col])
				out[j].Add(&out[j], &t)
			}
		}
	})
	return nil
}

// RowLengths returns the per-row non-zero counts (all < 256), the input of
// the bucket-sort warp-balancing scheme in §3.3.
func (m *SparseMatrix) RowLengths() []byte {
	out := make([]byte, len(m.Rows))
	for j, row := range m.Rows {
		out[j] = byte(len(row))
	}
	return out
}

// NumNonZeros returns the total non-zero count — one field multiply-add of
// encoding work per non-zero.
func (m *SparseMatrix) NumNonZeros() int {
	total := 0
	for _, row := range m.Rows {
		total += len(row)
	}
	return total
}

// Params configures the expander sampling.
type Params struct {
	// BaseSize is the message size at which recursion stops and the
	// repetition base code takes over. Must be a power of two ≥ 2.
	BaseSize int
	// MinRowWeight/MaxRowWeightFirst bound row weights of the first
	// (halving) matrices; second matrices use slightly denser rows.
	MinRowWeight   int
	MaxRowWeightD1 int
	MaxRowWeightD2 int
	// Seed drives the deterministic graph sampling.
	Seed int64
}

// DefaultParams mirrors the expander densities used by Orion-style codes,
// scaled down so unit tests stay fast while preserving variable row
// lengths (the warp-imbalance phenomenon §3.3 addresses).
func DefaultParams() Params {
	return Params{
		BaseSize:       16,
		MinRowWeight:   6,
		MaxRowWeightD1: 14,
		MaxRowWeightD2: 18,
		Seed:           0x5a1e4d,
	}
}

// Stage holds the two sparse matrices of one recursion level.
type Stage struct {
	// First halves the stage input: InDim n → OutDim n/2.
	First *SparseMatrix
	// Second maps the recursively encoded half (length 2n) to the parity
	// section (length n).
	Second *SparseMatrix
}

// Encoder is a linear-time encoder for messages of a fixed power-of-two
// length. It is safe for concurrent use once constructed.
type Encoder struct {
	n      int
	params Params
	stages []Stage
}

// New samples an encoder for messages of length n (a power of two
// ≥ params.BaseSize).
func New(n int, params Params) (*Encoder, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("encoder: message length %d is not a positive power of two", n)
	}
	if params.BaseSize < 2 || params.BaseSize&(params.BaseSize-1) != 0 {
		return nil, fmt.Errorf("encoder: base size %d is not a power of two ≥ 2", params.BaseSize)
	}
	if n < params.BaseSize {
		return nil, fmt.Errorf("encoder: message length %d below base size %d", n, params.BaseSize)
	}
	if params.MinRowWeight < 1 || params.MaxRowWeightD1 > MaxRowWeight || params.MaxRowWeightD2 > MaxRowWeight ||
		params.MinRowWeight > params.MaxRowWeightD1 || params.MinRowWeight > params.MaxRowWeightD2 {
		return nil, fmt.Errorf("encoder: invalid row-weight bounds [%d, %d/%d]",
			params.MinRowWeight, params.MaxRowWeightD1, params.MaxRowWeightD2)
	}
	e := &Encoder{n: n, params: params}
	rng := rand.New(rand.NewSource(params.Seed))
	for size := n; size > params.BaseSize; size /= 2 {
		first := sampleMatrix(rng, size, size/2, params.MinRowWeight, params.MaxRowWeightD1)
		second := sampleMatrix(rng, RateInv*size/2, size, params.MinRowWeight, params.MaxRowWeightD2)
		e.stages = append(e.stages, Stage{First: first, Second: second})
	}
	return e, nil
}

// cachedEncoders memoizes Cached lookups. New is deterministic in
// (n, params) — the expander graphs are sampled from params.Seed — so a
// repeat construction yields a bit-identical encoder, and sharing one
// instance is safe: an Encoder is read-only after construction.
var cachedEncoders sync.Map // cacheKey → *Encoder

type cacheKey struct {
	n      int
	params Params
}

// Cached returns a shared encoder for (n, params), constructing it on
// first use. Committing, proving, and verifying re-derive the encoder
// from public parameters on every call; the cache turns those repeat
// constructions — sampling ~n log n sparse rows each — into one map load.
// Construction errors are not cached.
func Cached(n int, params Params) (*Encoder, error) {
	key := cacheKey{n: n, params: params}
	if e, ok := cachedEncoders.Load(key); ok {
		return e.(*Encoder), nil
	}
	e, err := New(n, params)
	if err != nil {
		return nil, err
	}
	actual, _ := cachedEncoders.LoadOrStore(key, e)
	return actual.(*Encoder), nil
}

// sampleMatrix draws a sparse matrix whose rows have a uniformly random
// weight in [minW, min(maxW, inDim)] and distinct random columns with
// non-zero coefficients.
func sampleMatrix(rng *rand.Rand, inDim, outDim, minW, maxW int) *SparseMatrix {
	if maxW > inDim {
		maxW = inDim
	}
	if minW > maxW {
		minW = maxW
	}
	m := &SparseMatrix{InDim: inDim, OutDim: outDim, Rows: make([][]Entry, outDim)}
	for j := 0; j < outDim; j++ {
		w := minW + rng.Intn(maxW-minW+1)
		// Rejection-sample w distinct columns (w ≪ inDim in practice, and
		// w ≤ inDim always, so this terminates quickly). A row holds at
		// most maxW entries, so a linear scan finds duplicates faster
		// than a set would.
		row := make([]Entry, 0, w)
		for len(row) < w {
			c := rng.Intn(inDim)
			if hasCol(row, c) {
				continue
			}
			var coeff field.Element
			coeff.SetUint64(rng.Uint64() | 1) // never zero
			row = append(row, Entry{Col: c, Coeff: coeff})
		}
		m.Rows[j] = row
	}
	return m
}

// hasCol reports whether row already has an entry in column c.
func hasCol(row []Entry, c int) bool {
	for i := range row {
		if row[i].Col == c {
			return true
		}
	}
	return false
}

// StageWork summarizes the work of one recursion level without
// materializing coefficient matrices — used by the performance model at
// table scales (N up to 2^22), where full sampling would need gigabytes.
// The row-length distributions are drawn from the same generator family
// as New, so warp-imbalance factors are faithful.
type StageWork struct {
	InputLen   int
	FirstNNZ   int
	SecondNNZ  int
	FirstLens  []byte
	SecondLens []byte
}

// WorkModel returns the per-stage work profile of an encoder for messages
// of length n under params, without building the matrices.
func WorkModel(n int, params Params) ([]StageWork, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("encoder: message length %d is not a positive power of two", n)
	}
	if n < params.BaseSize {
		return nil, fmt.Errorf("encoder: message length %d below base size %d", n, params.BaseSize)
	}
	rng := rand.New(rand.NewSource(params.Seed))
	drawLens := func(outDim, minW, maxW, inDim int) ([]byte, int) {
		if maxW > inDim {
			maxW = inDim
		}
		if minW > maxW {
			minW = maxW
		}
		lens := make([]byte, outDim)
		total := 0
		for j := range lens {
			w := minW + rng.Intn(maxW-minW+1)
			lens[j] = byte(w)
			total += w
		}
		return lens, total
	}
	var out []StageWork
	for size := n; size > params.BaseSize; size /= 2 {
		sw := StageWork{InputLen: size}
		sw.FirstLens, sw.FirstNNZ = drawLens(size/2, params.MinRowWeight, params.MaxRowWeightD1, size)
		sw.SecondLens, sw.SecondNNZ = drawLens(size, params.MinRowWeight, params.MaxRowWeightD2, RateInv*size/2)
		out = append(out, sw)
	}
	return out, nil
}

// MessageLen returns the message length the encoder was built for.
func (e *Encoder) MessageLen() int { return e.n }

// CodewordLen returns the codeword length (RateInv · message length).
func (e *Encoder) CodewordLen() int { return RateInv * e.n }

// NumStages returns the recursion depth (excluding the base code).
func (e *Encoder) NumStages() int { return len(e.stages) }

// Stages exposes the sampled stage matrices (read-only use).
func (e *Encoder) Stages() []Stage { return e.stages }

// Encode is the recursive reference encoder (Figure 3 of the paper).
func (e *Encoder) Encode(x []field.Element) ([]field.Element, error) {
	if len(x) != e.n {
		return nil, fmt.Errorf("encoder: message length %d, want %d", len(x), e.n)
	}
	return e.encodeAt(0, x)
}

func (e *Encoder) encodeAt(stage int, x []field.Element) ([]field.Element, error) {
	if stage == len(e.stages) {
		return baseEncode(x), nil
	}
	s := e.stages[stage]
	y, err := s.First.MulVec(x)
	if err != nil {
		return nil, err
	}
	w, err := e.encodeAt(stage+1, y)
	if err != nil {
		return nil, err
	}
	v, err := s.Second.MulVec(w)
	if err != nil {
		return nil, err
	}
	out := make([]field.Element, 0, RateInv*len(x))
	out = append(out, x...)
	out = append(out, w...)
	out = append(out, v...)
	return out, nil
}

// baseEncode is the repetition base code: the message four times.
func baseEncode(x []field.Element) []field.Element {
	out := make([]field.Element, 0, RateInv*len(x))
	for i := 0; i < RateInv; i++ {
		out = append(out, x...)
	}
	return out
}

// EncodeIterative is the two-pass, pipeline-shaped encoder of Figure 6:
// a forward sweep of all first multiplications (large → small), the base
// code, then a backward sweep of all second multiplications (small →
// large). The result is identical to Encode.
func (e *Encoder) EncodeIterative(x []field.Element) ([]field.Element, error) {
	if len(x) != e.n {
		return nil, fmt.Errorf("encoder: message length %d, want %d", len(x), e.n)
	}
	// Forward pass: inputs[k] is the message at stage k.
	inputs := make([][]field.Element, len(e.stages)+1)
	inputs[0] = x
	for k, s := range e.stages {
		y, err := s.First.MulVec(inputs[k])
		if err != nil {
			return nil, err
		}
		inputs[k+1] = y
	}
	// Base code, then backward pass assembling (x_k ‖ w_{k+1} ‖ v_k).
	w := baseEncode(inputs[len(e.stages)])
	for k := len(e.stages) - 1; k >= 0; k-- {
		v, err := e.stages[k].Second.MulVec(w)
		if err != nil {
			return nil, err
		}
		out := make([]field.Element, 0, RateInv*len(inputs[k]))
		out = append(out, inputs[k]...)
		out = append(out, w...)
		out = append(out, v...)
		w = out
	}
	return w, nil
}

// WorkNonZeros returns the total multiply-add count of one encoding — the
// sum of non-zeros over every stage matrix plus nothing for the
// (copy-only) base code. The performance model consumes this.
func (e *Encoder) WorkNonZeros() int {
	total := 0
	for _, s := range e.stages {
		total += s.First.NumNonZeros() + s.Second.NumNonZeros()
	}
	return total
}
