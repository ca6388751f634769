package sumcheck

import (
	"fmt"
	"slices"

	"batchzk/internal/field"
	"batchzk/internal/par"
	"batchzk/internal/poly"
	"batchzk/internal/transcript"
)

// gate is a sum of products of table indices: over tables (a, v, c),
// gate{{0, 1}, {2}} is a·v + c. Its degree, the longest product, is the
// degree of every round polynomial.
type gate [][]int

func (g gate) degree() (d int) {
	for _, term := range g {
		d = max(d, len(term))
	}
	return d
}

// source is the round randomness: tr, or fixed challenges when tr is nil.
type source struct {
	tr    *transcript.Transcript
	fixed []field.Element
}

// challenge binds round i's message under the instance's label and
// returns its challenge; round 0 first binds the round count and claim.
func (in instance) challenge(src source, i, n int, claim *field.Element, evals []field.Element) field.Element {
	if src.tr == nil {
		return src.fixed[i]
	}
	if i == 0 {
		src.tr.AppendUint64(in.label+"/n", uint64(n))
		src.tr.AppendElement(in.label+"/claim", claim)
	}
	src.tr.AppendElements(in.label+"/round", evals)
	return src.tr.ChallengeElement(in.label + "/r")
}

// parallelHalf is the half-table length below which a round runs serially
// (chunking a small fold costs more than the fold); tests lower it.
var parallelHalf = 2048

// prove is the sum-check kernel: Algorithm 1 over copies of the tables of
// ms, combined by the instance's gate. The claim is the round-0 values at
// 0 and 1 summed; a non-nil want (the caller's claim) must equal it. It
// returns the proof, the point (x_1..x_n order), the claim, and each
// table's value at the point. Both sweeps of a round split into the same
// deterministic chunks, pinned per round: partials reduce in chunk order
// and fold writes are disjoint, so proofs are bit-identical at any width.
func (in instance) prove(src source, want *field.Element, ms ...*poly.Multilinear) (*Proof, []field.Element, field.Element, []field.Element, error) {
	var claim field.Element
	n, d := ms[0].NumVars(), in.g.degree()
	tables, finals := make([][]field.Element, len(ms)), make([]field.Element, len(ms))
	for j, m := range ms {
		if m.NumVars() != n {
			return nil, nil, claim, finals, fmt.Errorf("sumcheck: %s arity mismatch %d vs %d", in.label, n, m.NumVars())
		}
		tables[j] = append([]field.Element(nil), m.Evals()...)
	}
	if n == 0 {
		return nil, nil, claim, finals, fmt.Errorf("sumcheck: a one-entry table has no variables to sum over")
	}
	if src.tr == nil && len(src.fixed) != n {
		return nil, nil, claim, finals, fmt.Errorf("sumcheck: %d challenges for %d rounds", len(src.fixed), n)
	}
	evals := make([]field.Element, n*(d+1))
	proof, rs := &Proof{Rounds: make([]Round, n)}, make([]field.Element, n)
	s := par.GetScratch()
	defer par.PutScratch(s)
	for i := 0; i < n; i++ {
		half := len(tables[0]) / 2
		rd := evals[i*(d+1) : (i+1)*(d+1) : (i+1)*(d+1)]
		k := 1
		if half >= parallelHalf {
			k = par.Chunks(0, half)
		}
		if k == 1 {
			sweep(tables, in.g, d, half, 0, half, rd)
		} else {
			partials := s.ZeroElements(0, (d+1)*k)
			par.ForChunks(k, half, func(c, lo, hi int) {
				sweep(tables, in.g, d, half, lo, hi, partials[(d+1)*c:(d+1)*(c+1)])
			})
			for c := 0; c < k; c++ {
				for x := range rd {
					rd[x].Add(&rd[x], &partials[(d+1)*c+x])
				}
			}
		}
		if i == 0 {
			claim.Add(&rd[0], &rd[1])
			if want != nil && !claim.Equal(want) {
				return nil, nil, claim, finals, fmt.Errorf("sumcheck: %s claim does not match the tables", in.label)
			}
		}
		proof.Rounds[i] = Round{Evals: rd}
		rs[i] = in.challenge(src, i, n, &claim, rd)
		par.ForWidth(k, half, func(lo, hi int) {
			for _, t := range tables {
				for b := lo; b < hi; b++ {
					t[b].Lerp(&rs[i], &t[b], &t[b+half])
				}
			}
		})
		for j := range tables {
			tables[j] = tables[j][:half]
		}
	}
	for j := range tables {
		finals[j] = tables[j][0]
	}
	slices.Reverse(rs)
	return proof, rs, claim, finals, nil
}

// sweep adds into acc[x], x = 0..d, the gate summed over b in [lo, hi)
// with each table t at t[b] + x·(t[b+half] − t[b]). Per block, a stack
// arena takes k·(d−1) rows of points 2..d, extrapolated by adding the
// difference (no Lerp multiply), and one row of products.
func sweep(tables [][]field.Element, g gate, d, half, lo, hi int, acc []field.Element) {
	var arena [256]field.Element
	step := len(arena) / (len(tables)*(d-1) + 1)
	ext, prod := arena[:len(tables)*(d-1)*step], arena[len(tables)*(d-1)*step:]
	at := func(j, x, b0, m int) []field.Element {
		if x < 2 {
			return tables[j][x*half+b0 : x*half+b0+m]
		}
		return ext[(j*(d-1)+x-2)*step:][:m]
	}
	for b0 := lo; b0 < hi; b0 += step {
		m := min(step, hi-b0)
		for j := 0; j < len(tables) && d > 1; j++ {
			t, e := tables[j], ext[j*(d-1)*step:]
			for i := 0; i < m; i++ {
				var diff field.Element
				v := t[half+b0+i]
				diff.Sub(&v, &t[b0+i])
				for x := 0; x < d-1; x++ {
					e[x*step+i] = *v.Add(&v, &diff)
				}
			}
		}
		for x := 0; x <= d; x++ {
			var sum field.Element
			for _, term := range g {
				v := at(term[0], x, b0, m)
				for _, j := range term[1:] {
					w, p := at(j, x, b0, m), prod[:m]
					for i := range p {
						p[i].Mul(&v[i], &w[i])
					}
					v = p
				}
				for i := range v {
					sum.Add(&sum, &v[i])
				}
			}
			acc[x].Add(&acc[x], &sum)
		}
	}
}
