package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"

	lincode "batchzk/internal/encoder"
	"batchzk/internal/field"
	"batchzk/internal/pcs"
	"batchzk/internal/sha2"
	"batchzk/internal/sumcheck"
)

// Binary proof encoding, version BZK2:
//
//	magic "BZK2" | root | rows | cols | outputs | o_tau |
//	hadamard rounds | l_rho | r_rho | linear rounds | w_sigma |
//	test row | eval row | column count k | k column indices |
//	k·rows column values | sibling count | siblings
//
// Integers are little-endian uint32; field elements are 32-byte canonical
// big-endian; digests are 32 bytes. Outputs, rounds and the two rows are
// length-prefixed; a round is its round polynomial's evaluations at
// 0..d, 4 elements for the Hadamard check and 3 for the linear check. The opened columns are not: each is rows values tall,
// as the commitment declares, and they share one Merkle multiproof whose
// leaves the verifier recomputes from the values. The columns still
// dominate the proof — this protocol family's proofs "reach several MB"
// at the paper's scales (§2.1) — which is why pcs.NewParams picks the
// commitment layout that minimizes them.
//
// The decoder checks every length against the shape the commitment
// declares before reading the items it counts, and grows slices as items
// arrive, so a forged length costs at most one readChunk of memory
// before the input runs out.

var proofMagic = [4]byte{'B', 'Z', 'K', '2'}

const (
	// maxCommitted caps rows·cols of a decoded commitment.
	maxCommitted = 1 << 28
	// maxRounds caps a sum-check's round count: one round per variable
	// of a hypercube whose size fits in a uint64.
	maxRounds = 64
	// readChunk is how many items a decoded slice may be allocated ahead
	// of the items actually read.
	readChunk = 1 << 12
	// hadamardDegree and linearDegree are the round-polynomial degrees of
	// the two sum-checks, e·f·g and f·g; each round carries degree+1
	// evaluations.
	hadamardDegree = 3
	linearDegree   = 2
)

type encoder struct {
	w   io.Writer
	err error
}

func (e *encoder) u32(v int) {
	if e.err != nil {
		return
	}
	if v < 0 || v > math.MaxUint32 {
		e.err = fmt.Errorf("protocol: length %d out of range", v)
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(v))
	_, e.err = e.w.Write(b[:])
}

func (e *encoder) elem(x *field.Element) {
	if e.err != nil {
		return
	}
	b := x.ToBytes()
	_, e.err = e.w.Write(b[:])
}

func (e *encoder) elems(xs []field.Element) {
	for i := range xs {
		e.elem(&xs[i])
	}
}

// rounds writes a sum-check proof: its round count, then each round's
// evaluations, which wireShape has checked are degree+1 long.
func (e *encoder) rounds(p *sumcheck.Proof) {
	e.u32(len(p.Rounds))
	for _, rd := range p.Rounds {
		e.elems(rd.Evals)
	}
}

func (e *encoder) digest(d sha2.Digest) {
	if e.err != nil {
		return
	}
	_, e.err = e.w.Write(d[:])
}

type decoder struct {
	r   io.Reader
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("protocol: "+format, args...)
	}
}

func (d *decoder) read(b []byte) {
	if d.err != nil {
		return
	}
	if _, err := io.ReadFull(d.r, b); err != nil {
		d.err = fmt.Errorf("protocol: truncated proof: %w", err)
	}
}

func (d *decoder) u32() int {
	var b [4]byte
	d.read(b[:])
	return int(binary.LittleEndian.Uint32(b[:]))
}

// count reads a length field and checks it against [lo, hi].
func (d *decoder) count(what string, lo, hi int) int {
	n := d.u32()
	if d.err == nil && (n < lo || n > hi) {
		d.fail("%s count %d outside [%d, %d]", what, n, lo, hi)
	}
	if d.err != nil {
		return 0
	}
	return n
}

func (d *decoder) elem(x *field.Element) {
	var b [field.Bytes]byte
	d.read(b[:])
	if d.err != nil {
		return
	}
	if err := x.SetBytes(b); err != nil {
		d.err = err
	}
}

func (d *decoder) digest() sha2.Digest {
	var out sha2.Digest
	d.read(out[:])
	return out
}

// readN decodes n items with one, growing the result as items arrive.
func readN[T any](d *decoder, n int, one func(*T)) []T {
	out := make([]T, 0, min(n, readChunk))
	for len(out) < n && d.err == nil {
		var x T
		one(&x)
		out = append(out, x)
	}
	if d.err != nil {
		return nil
	}
	return out
}

// rounds reads n sum-check rounds of degree+1 evaluations each.
func (d *decoder) rounds(n, degree int) *sumcheck.Proof {
	return &sumcheck.Proof{Rounds: readN(d, n, func(rd *sumcheck.Round) {
		rd.Evals = readN(d, degree+1, d.elem)
	})}
}

// errIncomplete is returned when a proof lacks a component or does not
// match the shape its commitment declares.
var errIncomplete = errors.New("protocol: cannot serialize incomplete or misshapen proof")

// wireShape checks what the encoding leaves implicit: every section is
// present, both rows are cols wide, and there is one rows-tall column per
// opened index.
func (p *Proof) wireShape() error {
	if p.Hadamard == nil || p.Linear == nil || p.PCSProof == nil {
		return errIncomplete
	}
	if err := p.Hadamard.Check(hadamardDegree); err != nil {
		return fmt.Errorf("%w: hadamard: %v", errIncomplete, err)
	}
	if err := p.Linear.Check(linearDegree); err != nil {
		return fmt.Errorf("%w: linear: %v", errIncomplete, err)
	}
	op := p.PCSProof
	if len(op.TestRow) != p.Commitment.NumCols || len(op.CombinedRow) != p.Commitment.NumCols ||
		len(op.Columns) != len(op.Paths.Indices) {
		return errIncomplete
	}
	for _, col := range op.Columns {
		if len(col) != p.Commitment.NumRows {
			return errIncomplete
		}
	}
	return nil
}

// WriteTo serializes the proof.
func (p *Proof) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	if err := p.wireShape(); err != nil {
		return 0, err
	}
	e := &encoder{w: cw}
	if _, err := cw.Write(proofMagic[:]); err != nil {
		return cw.n, err
	}
	e.digest(p.Commitment.Root)
	e.u32(p.Commitment.NumRows)
	e.u32(p.Commitment.NumCols)
	e.u32(len(p.Outputs))
	e.elems(p.Outputs)
	e.elem(&p.OTau)
	e.rounds(p.Hadamard)
	e.elem(&p.LRho)
	e.elem(&p.RRho)
	e.rounds(p.Linear)
	e.elem(&p.WSigma)
	op := p.PCSProof
	for _, row := range [][]field.Element{op.TestRow, op.CombinedRow} {
		e.u32(len(row))
		e.elems(row)
	}
	e.u32(len(op.Paths.Indices))
	for _, j := range op.Paths.Indices {
		e.u32(j)
	}
	for _, col := range op.Columns {
		e.elems(col)
	}
	e.u32(len(op.Paths.Siblings))
	for _, s := range op.Paths.Siblings {
		e.digest(s)
	}
	return cw.n, e.err
}

// ReadFrom deserializes a proof written by WriteTo.
func (p *Proof) ReadFrom(r io.Reader) (int64, error) {
	cr := &countingReader{r: r}
	d := &decoder{r: cr}
	var magic [4]byte
	d.read(magic[:])
	if d.err == nil && magic != proofMagic {
		d.fail("bad magic %q", magic)
	}
	p.Commitment = pcs.Commitment{Root: d.digest(), NumRows: d.u32(), NumCols: d.u32()}
	rows, cols := p.Commitment.NumRows, p.Commitment.NumCols
	if d.err == nil && (rows == 0 || cols == 0 || rows&(rows-1) != 0 || cols&(cols-1) != 0 || rows > maxCommitted/cols) {
		d.fail("commitment layout %dx%d is not a power-of-two matrix of at most %d cells", rows, cols, maxCommitted)
	}
	if d.err != nil {
		return cr.n, d.err
	}
	p.Outputs = readN(d, d.count("output", 0, rows*cols), d.elem)
	d.elem(&p.OTau)
	p.Hadamard = d.rounds(d.count("hadamard round", 1, maxRounds), hadamardDegree)
	d.elem(&p.LRho)
	d.elem(&p.RRho)
	numVars := bits.TrailingZeros(uint(rows * cols))
	p.Linear = d.rounds(d.count("linear round", numVars, numVars), linearDegree)
	d.elem(&p.WSigma)

	op := &pcs.EvalProof{}
	op.TestRow = readN(d, d.count("test row", cols, cols), d.elem)
	op.CombinedRow = readN(d, d.count("eval row", cols, cols), d.elem)
	leaves := lincode.RateInv * cols
	k := d.count("column", 0, leaves)
	op.Paths.Indices = readN(d, k, func(j *int) { *j = d.u32() })
	values := readN(d, k*rows, d.elem)
	if d.err == nil {
		op.Columns = make([][]field.Element, k)
		for i := range op.Columns {
			op.Columns[i] = values[i*rows : (i+1)*rows : (i+1)*rows]
		}
	}
	depth := bits.TrailingZeros(uint(leaves))
	op.Paths.Siblings = readN(d, d.count("sibling", 0, k*depth), func(s *sha2.Digest) { *s = d.digest() })
	op.Paths.NumLeaves = leaves
	p.PCSProof = op
	return cr.n, d.err
}

// MarshalBinary serializes the proof to a byte slice.
func (p *Proof) MarshalBinary() ([]byte, error) {
	size, err := p.Size()
	if err != nil {
		return nil, err
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	if _, err := p.WriteTo(buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary parses a proof serialized by MarshalBinary, rejecting
// trailing garbage.
func (p *Proof) UnmarshalBinary(data []byte) error {
	r := bytes.NewReader(data)
	if _, err := p.ReadFrom(r); err != nil {
		return err
	}
	if r.Len() != 0 {
		return fmt.Errorf("protocol: %d trailing bytes after proof", r.Len())
	}
	return nil
}

// Size returns the serialized proof size in bytes, computed from the
// section counts without encoding anything.
func (p *Proof) Size() (int, error) {
	if err := p.wireShape(); err != nil {
		return 0, err
	}
	const u32 = 4
	n := len(proofMagic) + sha2.Size + 2*u32 + // commitment
		u32 + len(p.Outputs)*field.Bytes + field.Bytes + // outputs, o_tau
		u32 + len(p.Hadamard.Rounds)*(hadamardDegree+1)*field.Bytes + 2*field.Bytes + // hadamard, l_rho, r_rho
		u32 + len(p.Linear.Rounds)*(linearDegree+1)*field.Bytes + field.Bytes // linear, w_sigma
	op := p.PCSProof
	return n + pcs.OpeningBytes(p.Commitment.NumRows, p.Commitment.NumCols, len(op.Columns), len(op.Paths.Siblings)), nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
