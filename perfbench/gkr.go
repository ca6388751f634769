package main

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/bits"
	"math/rand"
	"time"

	"batchzk/internal/circuit"
	"batchzk/internal/core"
	"batchzk/internal/field"
	"batchzk/internal/gkr"
	"batchzk/internal/pcs"
	"batchzk/internal/poly"
	"batchzk/internal/sumcheck"
	"batchzk/internal/transcript"
)

// gkr-batch: a closed loop keeping one core.GKRBatchProver of depth 4
// full, on gkr.FromCircuit of a random circuit with 2^10 multiplication
// gates (2048 lanes; the fixed circuit seed gives it 30 layers). Layer
// sum-checks (sumcheck.ProveAffineProduct) dominate; it bypasses
// BatchProver and the scheduler and barely touches the encoder and
// Merkle tree, so an encoder gain should not move it and a sum-check gain
// should.
const (
	gkrGates  = 1 << 10
	gkrPublic = 2
	gkrSecret = 2
	gkrDepth  = 4
	// gkrSLO is the latency limit of slo_attainment: about twice the
	// hand-over-to-emission latency a depth-4 pipeline has here.
	gkrSLO = 2 * time.Second
)

type gkrBench struct {
	src    *circuit.Circuit
	cc     *gkr.CompiledCircuit
	params pcs.Params
	bp     *core.GKRBatchProver
	inputs []input
	// vectors are the inputs laid out as the GKR input layer.
	vectors [][]field.Element
}

func setupGKR(o options) (runner, error) {
	src, err := circuit.RandomCircuit(gkrGates, gkrPublic, gkrSecret, circuitSeed)
	if err != nil {
		return nil, err
	}
	cc, err := gkr.FromCircuit(src)
	if err != nil {
		return nil, err
	}
	params := pcs.NewParams(bits.TrailingZeros(uint(cc.GKR.InputSize)))
	bp, err := core.NewGKRBatchProver(cc.GKR, params, gkrDepth)
	if err != nil {
		return nil, err
	}
	b := &gkrBench{src: src, cc: cc, params: params, bp: bp}
	warm, err := makeInputs(src, 1, o.seed^0x5eed)
	if err != nil {
		return nil, err
	}
	wv, err := cc.InputVector(warm[0].public, warm[0].secret)
	if err != nil {
		return nil, err
	}
	if res := bp.ProveBatch([]core.GKRJob{{ID: 0, Input: wv}}); res[0].Err != nil {
		return nil, fmt.Errorf("warm-up proof: %w", res[0].Err)
	}
	if b.inputs, err = makeInputs(src, inputPool, o.seed); err != nil {
		return nil, err
	}
	for _, in := range b.inputs {
		v, err := cc.InputVector(in.public, in.secret)
		if err != nil {
			return nil, err
		}
		b.vectors = append(b.vectors, v)
	}
	return b, nil
}

func (b *gkrBench) close() {}

// prove feeds the closed loop's jobs to the GKR batch prover one pull at
// a time (an unbuffered hand-over, as core.ProveStream does) and
// gob-encodes each proof: GKR proofs have no wire format of their own.
func (b *gkrBench) prove(next func() (int, bool), emit func(int, []byte, error)) {
	in := make(chan core.GKRJob)
	go func() {
		defer close(in)
		for {
			id, ok := next()
			if !ok {
				return
			}
			in <- core.GKRJob{ID: id, Input: b.vectors[id%len(b.vectors)]}
		}
	}()
	for r := range b.bp.Run(in) {
		if r.Err != nil {
			emit(r.ID, nil, r.Err)
			continue
		}
		blob, err := encodeGKR(r.Proof)
		emit(r.ID, blob, err)
	}
}

func encodeGKR(p *gkr.CommittedProof) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(p)
	return buf.Bytes(), err
}

// check decodes a proof, verifies it with GKRBatchProver.Verify and
// compares the declared outputs with the circuit's.
func (b *gkrBench) check(id int, j *loopJob) verdict {
	in := b.inputs[id%len(b.inputs)]
	var cp gkr.CommittedProof
	if err := gob.NewDecoder(bytes.NewReader(j.blob)).Decode(&cp); err != nil {
		return verdict{reason: "decode: " + err.Error()}
	}
	outs, err := b.bp.Verify(&cp)
	if err != nil {
		return verdict{reason: "verify: " + err.Error()}
	}
	declared, err := b.cc.Outputs(outs)
	if err != nil {
		return verdict{reason: err.Error()}
	}
	if !sameElements(declared, in.outputs) {
		return verdict{reason: "outputs differ from circuit.Evaluate"}
	}
	return verdict{ok: true}
}

func (b *gkrBench) measure(o options, rep *report) error {
	lr := closedLoop(seconds(o.seconds), 0, nil, "", b.prove)
	vs, rate := lr.gate(rep, 0, b.check)
	return lr.addEndToEnd(rep, vs, rate, gkrSLO)
}

func (b *gkrBench) traced(o options, rep *report, tr *tracer) error {
	half := seconds(o.seconds / 2)
	plain := closedLoop(half, 0, nil, "", b.prove)
	vsPlain, _ := plain.gate(rep, 0, b.check)
	_, n := plain.throughput(vsPlain)
	addRuntimeMetrics(rep, plain.before, plain.after, n)

	// Traced half: a span per job. The GKR prover records no telemetry,
	// so there is no sink to turn on and telemetry.overhead_frac is n/a.
	first := len(plain.jobs)
	traced := closedLoop(half, first, tr, "gkr.job", b.prove)
	traced.gate(rep, first, b.check)

	blobs := make(map[int][]byte)
	for i, j := range plain.jobs {
		if vsPlain[i].ok {
			blobs[i] = j.blob
		}
	}
	return b.probe(tr, rep, blobs)
}

// probe proves the first probeJobs inputs through the committed-GKR
// stage functions one call at a time — the same calls GKRBatchProver
// makes — and checks each proof against the verifier, the circuit's
// outputs and the pipelined prover's proof of the same job.
func (b *gkrBench) probe(tr *tracer, rep *report, pipelineBlobs map[int][]byte) error {
	gc := b.cc.GKR
	rounds := 0
	for j := 0; j < probeJobs; j++ {
		vec := b.vectors[j%len(b.vectors)]
		padded := make([]field.Element, gc.InputSize)
		copy(padded, vec)
		ts := transcript.New(gkr.Domain)
		var (
			st      *pcs.ProverState
			values  [][]field.Element
			proof   *gkr.Proof
			u, v    []field.Element
			opening *pcs.MultiEvalProof
			err     error
		)
		root := tr.begin("probe.proof", 0, j)
		steps := []struct {
			name string
			run  func() error
		}{
			{"gkr.commit", func() error {
				if st, err = pcs.Commit(padded, b.params); err == nil {
					ts.AppendDigest("gkr/input-commitment", st.Commitment().Root)
				}
				return err
			}},
			{"gkr.evaluate", func() error { values, err = gc.Evaluate(vec); return err }},
			{"gkr.layers", func() error { proof, u, v, err = gkr.ProveFromValues(gc, values, ts); return err }},
			{"gkr.open", func() error {
				opening, _, err = st.ProveEvalMulti([][]field.Element{u, v}, ts)
				return err
			}},
		}
		for _, s := range steps {
			if err := tr.do(s.name, root, j, s.run); err != nil {
				return fmt.Errorf("probe job %d: %s: %w", j, s.name, err)
			}
		}
		tr.end(root)

		rep.attempted++
		cp := &gkr.CommittedProof{GKR: proof, Commitment: st.Commitment(), Opening: opening}
		blob, err := encodeGKR(cp)
		if err != nil {
			return err
		}
		if v := b.check(j, &loopJob{blob: blob}); !v.ok {
			rep.reject("probe job %d: %s", j, v.reason)
			continue
		}
		if pb, ok := pipelineBlobs[j]; ok && !bytes.Equal(pb, blob) {
			rep.reject("probe job %d: proof differs from the pipelined prover's", j)
			continue
		}
		rounds = 0
		for _, l := range proof.Layers {
			rounds += len(l.Phase1.Rounds) + len(l.Phase2.Rounds)
		}

		kroot := tr.begin("probe.kernels", 0, j)
		tree, err := probeCommit(tr, rep, kroot, j, padded, b.params, false)
		if err != nil {
			return err
		}
		if err := probeAffine(tr, kroot, j, values[len(values)/2]); err != nil {
			return err
		}
		tr.end(kroot)
		if j == probeJobs-1 {
			addCommitMetrics(tr, rep, b.params, tree, false)
		}
	}
	for _, m := range []string{"commit", "evaluate", "layers", "open"} {
		tr.addSpanMetric(rep, "gkr."+m+"_ms", "gkr."+m, "ms", 1)
	}
	rep.add("gkr.sumcheck_rounds", "count", float64(rounds), 1)
	tr.addSpanMetric(rep, "sumcheck.affine_ms", "sumcheck.affine", "ms", 1)
	addProbeHealth(tr, rep)
	return nil
}

// probeAffine runs one layer-phase sum-check, Σ a·v + c, over a layer's
// own values v with random wiring tables a and c of the same width.
func probeAffine(tr *tracer, parent, job int, layer []field.Element) error {
	rng := rand.New(rand.NewSource(int64(job)))
	a := randomElements(rng, len(layer))
	c := randomElements(rng, len(layer))
	var claim, t field.Element
	for i := range layer {
		t.Mul(&a[i], &layer[i])
		claim.Add(&claim, &t)
		claim.Add(&claim, &c[i])
	}
	am, err := poly.NewMultilinear(a)
	if err != nil {
		return err
	}
	vm, err := poly.NewMultilinear(append([]field.Element(nil), layer...))
	if err != nil {
		return err
	}
	cm, err := poly.NewMultilinear(c)
	if err != nil {
		return err
	}
	return tr.do("sumcheck.affine", parent, job, func() error {
		_, _, _, err := sumcheck.ProveAffineProduct(am, vm, cm, claim, transcript.New(probeDomain))
		return err
	})
}
