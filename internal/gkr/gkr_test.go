package gkr

import (
	"errors"
	"math/rand"
	"testing"

	"batchzk/internal/encoder"
	"batchzk/internal/field"
	"batchzk/internal/pcs"
	"batchzk/internal/transcript"
)

// smallCircuit: inputs (a,b,c,d) →
// layer1: [a·b, c+d, a+b, c·d]
// layer0 (outputs): [(a·b)·(c+d), (a+b)+(c·d)]
func smallCircuit() *Circuit {
	return &Circuit{
		InputSize: 4,
		Layers: [][]Gate{
			{{Op: Mul, In0: 0, In1: 1}, {Op: Add, In0: 2, In1: 3}},
			{{Op: Mul, In0: 0, In1: 1}, {Op: Add, In0: 2, In1: 3}, {Op: Add, In0: 0, In1: 1}, {Op: Mul, In0: 2, In1: 3}},
		},
	}
}

func TestEvaluate(t *testing.T) {
	c := smallCircuit()
	in := []field.Element{
		field.NewElement(2), field.NewElement(3),
		field.NewElement(5), field.NewElement(7),
	}
	values, err := c.Evaluate(in)
	if err != nil {
		t.Fatal(err)
	}
	// layer1 = [6, 12, 5, 35]; outputs = [6·12, 5+35] = [72, 40].
	if v, _ := values[0][0].Uint64(); v != 72 {
		t.Fatalf("out0 = %d", v)
	}
	if v, _ := values[0][1].Uint64(); v != 40 {
		t.Fatalf("out1 = %d", v)
	}
}

func TestValidate(t *testing.T) {
	c := smallCircuit()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Circuit{InputSize: 3, Layers: c.Layers}
	if bad.Validate() == nil {
		t.Fatal("non-power-of-two input accepted")
	}
	bad = &Circuit{InputSize: 4}
	if bad.Validate() == nil {
		t.Fatal("empty circuit accepted")
	}
	bad = &Circuit{InputSize: 4, Layers: [][]Gate{{{Op: Add, In0: 0, In1: 9}}}}
	if bad.Validate() == nil {
		t.Fatal("out-of-range wiring accepted")
	}
	if _, err := c.Evaluate(field.RandVector(5)); err == nil {
		t.Fatal("oversized input accepted")
	}
}

func TestProveVerifyPublic(t *testing.T) {
	c := smallCircuit()
	in := field.RandVector(4)
	proof, _, _, err := Prove(c, in, transcript.New(Domain))
	if err != nil {
		t.Fatal(err)
	}
	outs, err := VerifyPublic(c, in, proof, transcript.New(Domain))
	if err != nil {
		t.Fatal(err)
	}
	values, _ := c.Evaluate(in)
	for i := range outs {
		if !outs[i].Equal(&values[0][i]) {
			t.Fatalf("output %d mismatch", i)
		}
	}
}

// randomCircuit builds a deterministic random layered circuit.
func randomCircuit(depth, width, inputSize int, seed int64) *Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := &Circuit{InputSize: inputSize}
	for l := 0; l < depth; l++ {
		// The first layer generated is prepended last → it is the deepest
		// layer, reading the input.
		prevWidth := width
		if l == 0 {
			prevWidth = inputSize
		}
		layer := make([]Gate, width)
		for g := range layer {
			op := Add
			if rng.Intn(2) == 0 {
				op = Mul
			}
			layer[g] = Gate{Op: op, In0: rng.Intn(prevWidth), In1: rng.Intn(prevWidth)}
		}
		// Layers are stored output-first; build in reverse.
		c.Layers = append([][]Gate{layer}, c.Layers...)
	}
	return c
}

func TestRandomCircuits(t *testing.T) {
	for _, cfg := range []struct{ depth, width, in int }{
		{1, 2, 4}, {3, 8, 8}, {5, 16, 16}, {4, 64, 32},
	} {
		c := randomCircuit(cfg.depth, cfg.width, cfg.in, int64(cfg.depth*100+cfg.width))
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		in := field.RandVector(cfg.in)
		proof, _, _, err := Prove(c, in, transcript.New(Domain))
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if _, err := VerifyPublic(c, in, proof, transcript.New(Domain)); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
	}
}

func TestRejectWrongInput(t *testing.T) {
	c := smallCircuit()
	in := field.RandVector(4)
	proof, _, _, err := Prove(c, in, transcript.New(Domain))
	if err != nil {
		t.Fatal(err)
	}
	other := field.RandVector(4)
	if _, err := VerifyPublic(c, other, proof, transcript.New(Domain)); !errors.Is(err, ErrReject) {
		t.Fatalf("proof accepted for a different input: %v", err)
	}
}

func TestRejectTamperedProof(t *testing.T) {
	c := randomCircuit(3, 8, 8, 42)
	in := field.RandVector(8)
	one := field.One()

	mutate := func(f func(*Proof)) error {
		proof, _, _, err := Prove(c, in, transcript.New(Domain))
		if err != nil {
			t.Fatal(err)
		}
		f(proof)
		_, err = VerifyPublic(c, in, proof, transcript.New(Domain))
		return err
	}

	if err := mutate(func(p *Proof) { p.Outputs[0].Add(&p.Outputs[0], &one) }); err == nil {
		t.Fatal("tampered outputs accepted")
	}
	if err := mutate(func(p *Proof) { p.Layers[1].VU.Add(&p.Layers[1].VU, &one) }); err == nil {
		t.Fatal("tampered VU accepted")
	}
	if err := mutate(func(p *Proof) { p.Layers[0].VV.Add(&p.Layers[0].VV, &one) }); err == nil {
		t.Fatal("tampered VV accepted")
	}
	if err := mutate(func(p *Proof) {
		p.Layers[2].Phase1.Rounds[0].Evals[2].Add(&p.Layers[2].Phase1.Rounds[0].Evals[2], &one)
	}); err == nil {
		t.Fatal("tampered phase-1 round accepted")
	}
	if err := mutate(func(p *Proof) {
		p.Layers[0].Phase2.Rounds[1].Evals[0].Add(&p.Layers[0].Phase2.Rounds[1].Evals[0], &one)
	}); err == nil {
		t.Fatal("tampered phase-2 round accepted")
	}
	if err := mutate(func(p *Proof) { p.Layers = p.Layers[:len(p.Layers)-1] }); err == nil {
		t.Fatal("dropped layer accepted")
	}
	if _, _, _, _, err := Verify(c, nil, transcript.New(Domain)); err == nil {
		t.Fatal("nil proof accepted")
	}
}

func TestCommittedInput(t *testing.T) {
	c := randomCircuit(3, 16, 16, 7)
	secret := field.RandVector(16)
	params := pcs.Params{NumRows: 1, NumCols: 16, NumOpenings: 8, Enc: encoder.DefaultParams()}
	cp, err := ProveCommitted(c, secret, params, transcript.New(Domain))
	if err != nil {
		t.Fatal(err)
	}
	outs, err := VerifyCommitted(c, cp, params, transcript.New(Domain))
	if err != nil {
		t.Fatal(err)
	}
	values, _ := c.Evaluate(secret)
	for i := range outs {
		if !outs[i].Equal(&values[0][i]) {
			t.Fatalf("output %d mismatch", i)
		}
	}

	// Tampered output must fail.
	cp2, _ := ProveCommitted(c, secret, params, transcript.New(Domain))
	one := field.One()
	cp2.GKR.Outputs[0].Add(&cp2.GKR.Outputs[0], &one)
	if _, err := VerifyCommitted(c, cp2, params, transcript.New(Domain)); err == nil {
		t.Fatal("tampered committed proof accepted")
	}
	// A proof generated from a different witness fails against the first
	// commitment (swap openings).
	cp3, _ := ProveCommitted(c, field.RandVector(16), params, transcript.New(Domain))
	cp3.Commitment = cp.Commitment
	if _, err := VerifyCommitted(c, cp3, params, transcript.New(Domain)); err == nil {
		t.Fatal("cross-witness committed proof accepted")
	}
	if _, err := VerifyCommitted(c, nil, params, transcript.New(Domain)); err == nil {
		t.Fatal("nil committed proof accepted")
	}
}

func TestDeterministicProofs(t *testing.T) {
	c := smallCircuit()
	in := field.RandVector(4)
	p1, _, _, _ := Prove(c, in, transcript.New(Domain))
	p2, _, _, _ := Prove(c, in, transcript.New(Domain))
	if !p1.Layers[0].VU.Equal(&p2.Layers[0].VU) || !p1.Layers[1].VV.Equal(&p2.Layers[1].VV) {
		t.Fatal("proofs not deterministic")
	}
}
