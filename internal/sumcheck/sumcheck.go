// Package sumcheck implements the sum-check protocol (§2.3 of the BatchZK
// paper), the module the paper's evaluation identifies as the dominant cost
// of modern ZKP protocols.
//
// One kernel proves every claim H = Σ_b g(t_0(b), …, t_{k-1}(b)) over the
// Boolean hypercube, where the t_j are multilinear tables and the gate g is
// a sum of products of them (zkPHIRE's programmable high-degree gate). The
// prover is Algorithm 1 of the paper (Vu et al. [55]) over k tables: round
// i sends the degree-d round polynomial as its evaluations at 0..d, then
// folds every table, A[b] ← (1−r_i)·A[b] + r_i·A[b+2^{n-i}]. One verifier
// checks any gate's proof. The named instances are the gates the system
// sums: Prove (p, Algorithm 1 itself), ProveProduct (f·g, the linear
// check), ProveAffineProduct (a·v + c, a GKR layer phase) and ProveTriple
// (e·f·g, the Hadamard check). Challenges come from a Fiat–Shamir
// transcript; ProveWithChallenges takes caller-supplied randomness (as the
// pipelined GPU module does, deriving it from Merkle roots, §4).
package sumcheck

import (
	"errors"
	"fmt"
	"slices"

	"batchzk/internal/field"
	"batchzk/internal/poly"
	"batchzk/internal/transcript"
)

// Round is one round's message: the round polynomial's evaluations at 0..d.
type Round struct {
	Evals []field.Element
}

// Proof is a complete sum-check proof: one Round per variable.
type Proof struct {
	Rounds []Round
}

// NumRounds returns the number of rounds (= number of variables).
func (p *Proof) NumRounds() int { return len(p.Rounds) }

// ErrReject is returned when a proof fails verification.
var ErrReject = errors.New("sumcheck: proof rejected")

// Check reports an error unless p has at least one round and every round
// carries degree+1 evaluations.
func (p *Proof) Check(degree int) error {
	if p == nil || len(p.Rounds) == 0 {
		return fmt.Errorf("%w: empty proof", ErrReject)
	}
	for i, rd := range p.Rounds {
		if len(rd.Evals) != degree+1 {
			return fmt.Errorf("%w: round %d has %d evaluations, want %d", ErrReject, i, len(rd.Evals), degree+1)
		}
	}
	return nil
}

// instance is one named sum-check: its gate and its transcript label.
type instance struct {
	g     gate
	label string
}

var (
	plain   = instance{gate{{0}}, "sumcheck"}
	product = instance{gate{{0, 1}}, "sumcheck2"}
	affine  = instance{gate{{0, 1}, {2}}, "sumcheckA"}
	triple  = instance{gate{{0, 1, 2}}, "sumcheck3"}
)

// verify checks each round's values at 0 and 1 against the running claim,
// which becomes the round polynomial's value at the challenge. It returns
// the point (x_1..x_n order) and the final claim, the gate's value there.
func (in instance) verify(claim field.Element, proof *Proof, src source) ([]field.Element, field.Element, error) {
	if err := proof.Check(in.g.degree()); err != nil {
		return nil, field.Element{}, err
	}
	n := len(proof.Rounds)
	if src.tr == nil && len(src.fixed) != n {
		return nil, field.Element{}, fmt.Errorf("sumcheck: %d challenges for %d rounds", len(src.fixed), n)
	}
	expected, rs := claim, make([]field.Element, n)
	for i, rd := range proof.Rounds {
		var sum field.Element
		if !sum.Add(&rd.Evals[0], &rd.Evals[1]).Equal(&expected) {
			return nil, field.Element{}, fmt.Errorf("%w: %s round %d sum mismatch", ErrReject, in.label, i)
		}
		rs[i] = in.challenge(src, i, n, &claim, rd.Evals)
		expected = poly.InterpolateEvalAt(rd.Evals, &rs[i])
	}
	slices.Reverse(rs)
	return rs, expected, nil
}

// Prove proves the hypercube sum of m (nil proof if m has no variables).
// It returns the proof, the challenge point in x_1..x_n order (round i
// binds x_{n+1-i}), and the claimed sum.
func Prove(m *poly.Multilinear, tr *transcript.Transcript) (*Proof, []field.Element, field.Element) {
	proof, point, claim, _, _ := plain.prove(source{tr: tr}, nil, m)
	return proof, point, claim
}

// ProveWithChallenges runs Algorithm 1 with caller-supplied randomness
// (rs[0] binds x_n), returning the proof and the folded value p(point).
func ProveWithChallenges(m *poly.Multilinear, rs []field.Element) (*Proof, field.Element, error) {
	proof, _, _, finals, err := plain.prove(source{fixed: rs}, nil, m)
	return proof, finals[0], err
}

// Verify checks a Prove proof against a claimed sum, returning the
// challenge point and the final claimed evaluation p(point).
func Verify(claim field.Element, proof *Proof, tr *transcript.Transcript) ([]field.Element, field.Element, error) {
	return plain.verify(claim, proof, source{tr: tr})
}

// VerifyChallenges checks a ProveWithChallenges proof under known
// randomness, returning the final claimed evaluation.
func VerifyChallenges(claim field.Element, proof *Proof, rs []field.Element) (field.Element, error) {
	_, final, err := plain.verify(claim, proof, source{fixed: rs})
	return final, err
}

// ProveProduct proves the sum of f·g. It returns the proof, the challenge
// point (x_1..x_n order), the claimed sum, and f(point), g(point).
func ProveProduct(f, g *poly.Multilinear, tr *transcript.Transcript) (*Proof, []field.Element, field.Element, [2]field.Element, error) {
	proof, point, claim, finals, err := product.prove(source{tr: tr}, nil, f, g)
	return proof, point, claim, [2]field.Element(finals), err
}

// VerifyProduct checks a ProveProduct proof, returning the challenge
// point and the final claim f(point)·g(point).
func VerifyProduct(claim field.Element, proof *Proof, tr *transcript.Transcript) ([]field.Element, field.Element, error) {
	return product.verify(claim, proof, source{tr: tr})
}

// ProveAffineProduct proves that a·v + c sums to the caller's claim (GKR
// chains claims across phases; a wrong claim is an error). It returns the
// proof, the challenge point, and [a(pt), v(pt), c(pt)].
func ProveAffineProduct(a, v, c *poly.Multilinear, claim field.Element, tr *transcript.Transcript) (*Proof, []field.Element, [3]field.Element, error) {
	proof, point, _, finals, err := affine.prove(source{tr: tr}, &claim, a, v, c)
	return proof, point, [3]field.Element(finals), err
}

// VerifyAffineProduct checks a ProveAffineProduct proof, returning the
// challenge point and the final claim a(pt)·v(pt) + c(pt).
func VerifyAffineProduct(claim field.Element, proof *Proof, tr *transcript.Transcript) ([]field.Element, field.Element, error) {
	return affine.verify(claim, proof, source{tr: tr})
}

// ProveTriple proves the sum of e·f·g. It returns the proof, the challenge
// point (x_1..x_n order), the claimed sum, and [e(pt), f(pt), g(pt)].
func ProveTriple(e, f, g *poly.Multilinear, tr *transcript.Transcript) (*Proof, []field.Element, field.Element, [3]field.Element, error) {
	proof, point, claim, finals, err := triple.prove(source{tr: tr}, nil, e, f, g)
	return proof, point, claim, [3]field.Element(finals), err
}

// VerifyTriple checks a ProveTriple proof, returning the challenge point
// and the final claim e(pt)·f(pt)·g(pt) for the caller to settle.
func VerifyTriple(claim field.Element, proof *Proof, tr *transcript.Transcript) ([]field.Element, field.Element, error) {
	return triple.verify(claim, proof, source{tr: tr})
}
