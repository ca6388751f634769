package main

import (
	"fmt"
	"time"

	"batchzk/internal/circuit"
	"batchzk/internal/core"
	"batchzk/internal/protocol"
	"batchzk/internal/telemetry"
)

// r1cs-batch: a closed loop keeping one core.BatchProver of depth 4 full
// through ProveStream with buffered commitments, on a random circuit of
// 2^14 multiplication gates (2^15 padded wires, a 128×256 commitment
// matrix). The kernels dominate: commitment (encoder + Merkle), then the
// gate and linear sum-checks. The service layer does no work.
const (
	r1csGates  = 1 << 14
	r1csPublic = 4
	r1csSecret = 16
	r1csDepth  = 4
	// r1csSLO is the latency limit of slo_attainment: about twice the
	// hand-over-to-emission latency a depth-4 pipeline has here.
	r1csSLO = 3 * time.Second
)

// circuitSeed fixes the random circuits: the circuit is part of a
// workload's definition, and -seed varies only the inputs (and the
// gateway's arrival times).
const circuitSeed = 1

type r1csBench struct {
	c      *circuit.Circuit
	p      *protocol.Params
	bp     *core.BatchProver
	inputs []input
}

func setupR1CS(o options) (runner, error) {
	c, err := circuit.RandomCircuit(r1csGates, r1csPublic, r1csSecret, circuitSeed)
	if err != nil {
		return nil, err
	}
	p, err := protocol.Setup(c)
	if err != nil {
		return nil, err
	}
	bp, err := core.NewBatchProver(c, p, r1csDepth)
	if err != nil {
		return nil, err
	}
	b := &r1csBench{c: c, p: p, bp: bp}
	// One warm-up proof fills the encoder, twiddle and Merkle-shape
	// caches.
	warm, err := makeInputs(c, 1, o.seed^0x5eed)
	if err != nil {
		return nil, err
	}
	res := bp.ProveBatch([]core.Job{{ID: 0, Public: warm[0].public, Secret: warm[0].secret}})
	if res[0].Err != nil {
		return nil, fmt.Errorf("warm-up proof: %w", res[0].Err)
	}
	if b.inputs, err = makeInputs(c, inputPool, o.seed); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *r1csBench) close() {}

// prove streams the closed loop's jobs through the batch prover.
func (b *r1csBench) prove(next func() (int, bool), emit func(int, []byte, error)) {
	b.bp.ProveStream(func() (core.Job, bool) {
		id, ok := next()
		if !ok {
			return core.Job{}, false
		}
		in := b.inputs[id%len(b.inputs)]
		return core.Job{ID: id, Public: in.public, Secret: in.secret}, true
	}, func(r core.Result) {
		if r.Err != nil {
			emit(r.ID, nil, r.Err)
			return
		}
		blob, err := r.Proof.MarshalBinary()
		emit(r.ID, blob, err)
	})
}

// check decodes a proof from its wire bytes, verifies it and compares
// its outputs with the circuit's.
func (b *r1csBench) check(id int, j *loopJob) verdict {
	in := b.inputs[id%len(b.inputs)]
	var pf protocol.Proof
	if err := pf.UnmarshalBinary(j.blob); err != nil {
		return verdict{reason: "decode: " + err.Error()}
	}
	if err := protocol.Verify(b.c, b.p, in.public, &pf); err != nil {
		return verdict{reason: "verify: " + err.Error()}
	}
	if !sameElements(pf.Outputs, in.outputs) {
		return verdict{reason: "outputs differ from circuit.Evaluate"}
	}
	return verdict{ok: true}
}

func (b *r1csBench) measure(o options, rep *report) error {
	lr := closedLoop(seconds(o.seconds), 0, nil, "", b.prove)
	vs, rate := lr.gate(rep, 0, b.check)
	return lr.addEndToEnd(rep, vs, rate, r1csSLO)
}

func (b *r1csBench) traced(o options, rep *report, tr *tracer) error {
	half := seconds(o.seconds / 2)
	// Untraced half: the counters of par, runtime and core.
	s0 := b.bp.Stats()
	plain := closedLoop(half, 0, nil, "", b.prove)
	s1 := b.bp.Stats()
	vsPlain, _ := plain.gate(rep, 0, b.check)
	ppsPlain, n := plain.throughput(vsPlain)
	addRuntimeMetrics(rep, plain.before, plain.after, n)
	addCoreMetrics(rep, s0, s1, plain.after.at.Sub(plain.before.at))

	// Traced half: the prover's telemetry sink on, a span per job.
	sink := telemetry.NewSink(0)
	b.bp.SetTelemetry(sink)
	defer b.bp.SetTelemetry(nil)
	first := len(plain.jobs)
	traced := closedLoop(half, first, tr, "core.job", b.prove)
	vsTraced, _ := traced.gate(rep, first, b.check)
	ppsTraced, _ := traced.throughput(vsTraced)
	addSinkMetrics(rep, sink)
	if ppsPlain > 0 {
		rep.add("telemetry.overhead_frac", "fraction", 1-ppsTraced/ppsPlain, len(traced.jobs))
	}

	blobs := make(map[int][]byte)
	for i, j := range plain.jobs {
		if vsPlain[i].ok {
			blobs[i] = j.blob
		}
	}
	return probeR1CS(tr, rep, b.c, b.p, b.inputs, false, blobs)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
