package main

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"

	"batchzk/internal/circuit"
	"batchzk/internal/encoder"
	"batchzk/internal/field"
	"batchzk/internal/merkle"
	"batchzk/internal/pcs"
	"batchzk/internal/poly"
	"batchzk/internal/protocol"
	"batchzk/internal/sha2"
	"batchzk/internal/sumcheck"
	"batchzk/internal/transcript"
)

// The sequential probe of the traced run. The pipelined window shows
// only whole jobs from outside; the probe drives the workload's own
// inputs one call at a time through the public stage and kernel
// functions, with a span around each call, so every layer gets a
// duration and the root span of each proof shows how much of it the
// layer spans cover.

// probeJobs is how many jobs the probe proves one at a time.
const probeJobs = 3

// probeDomain labels the transcripts of the probe's stand-alone kernel
// calls.
const probeDomain = "perfbench/probe"

// probeR1CS proves the first probeJobs inputs through the protocol's
// stage functions (streaming commitment when streaming is set, as the
// gateway runs it), checks each proof through the wire format, verifier
// and, where the pipeline proved the same job, byte equality with the
// pipeline's proof; then it times the commitment's and sum-checks'
// kernels on the same data.
func probeR1CS(tr *tracer, rep *report, c *circuit.Circuit, p *protocol.Params, ins []input, streaming bool, pipelineBlobs map[int][]byte) error {
	start := protocol.StartProof
	if streaming {
		start = protocol.StartProofStreaming
	}
	var lastTree *merkle.Tree
	for j := 0; j < probeJobs; j++ {
		in := ins[j%len(ins)]
		var (
			w     circuit.Assignment
			f     *protocol.InFlight
			proof *protocol.Proof
			err   error
		)
		root := tr.begin("probe.proof", 0, j)
		steps := []struct {
			name string
			run  func() error
		}{
			{"protocol.evaluate", func() error { w, err = c.Evaluate(in.public, in.secret); return err }},
			{"protocol.commit", func() error { f, err = start(c, p, w); return err }},
			{"protocol.hadamard", func() error { return f.RunHadamard() }},
			{"protocol.linear", func() error { return f.RunLinear() }},
			{"protocol.open", func() error { proof, err = f.Finish(); return err }},
		}
		for _, s := range steps {
			if err := tr.do(s.name, root, j, s.run); err != nil {
				return fmt.Errorf("probe job %d: %s: %w", j, s.name, err)
			}
		}
		tr.end(root)

		rep.attempted++
		var blob []byte
		var back protocol.Proof
		if err := tr.do("protocol.encode", 0, j, func() error { blob, err = proof.MarshalBinary(); return err }); err != nil {
			return err
		}
		if err := tr.do("protocol.decode", 0, j, func() error { return back.UnmarshalBinary(blob) }); err != nil {
			rep.reject("probe job %d: decode: %v", j, err)
			continue
		}
		if err := tr.do("protocol.verify", 0, j, func() error { return protocol.Verify(c, p, in.public, &back) }); err != nil {
			rep.reject("probe job %d: verify: %v", j, err)
			continue
		}
		if !sameElements(back.Outputs, in.outputs) {
			rep.reject("probe job %d: outputs differ from circuit.Evaluate", j)
			continue
		}
		if pb, ok := pipelineBlobs[j]; ok && !bytes.Equal(pb, blob) {
			rep.reject("probe job %d: proof differs from the pipelined prover's", j)
			continue
		}

		padded := make([]field.Element, p.NumWires)
		copy(padded, w)
		kroot := tr.begin("probe.kernels", 0, j)
		if lastTree, err = probeCommit(tr, rep, kroot, j, padded, p.PCS, streaming); err != nil {
			return err
		}
		if err := probeR1CSSumchecks(tr, kroot, j, c, p, w, padded); err != nil {
			return err
		}
		tr.end(kroot)
	}
	addCommitMetrics(tr, rep, p.PCS, lastTree, streaming)
	for _, m := range []string{"evaluate", "commit", "hadamard", "linear", "open", "verify"} {
		tr.addSpanMetric(rep, "protocol."+m+"_ms", "protocol."+m, "ms", 1)
	}
	tr.addSpanMetric(rep, "protocol.encode_us", "protocol.encode", "us", 1)
	tr.addSpanMetric(rep, "protocol.decode_us", "protocol.decode", "us", 1)
	tr.addSpanMetric(rep, "sumcheck.triple_ms", "sumcheck.triple", "ms", 1)
	tr.addSpanMetric(rep, "sumcheck.product_ms", "sumcheck.product", "ms", 1)
	addProbeHealth(tr, rep)
	return nil
}

// probeR1CSSumchecks runs the protocol's two sum-check shapes on the
// job's own tables: the degree-3 gate check Σ eq·L·R over the padded
// gates and the degree-2 linear check Σ v·W over the padded wires.
func probeR1CSSumchecks(tr *tracer, parent, job int, c *circuit.Circuit, p *protocol.Params, w circuit.Assignment, padded []field.Element) error {
	rng := rand.New(rand.NewSource(int64(job)))
	l := make([]field.Element, p.NumGates)
	r := make([]field.Element, p.NumGates)
	one := field.One()
	for g, gate := range c.Gates {
		switch gate.Op {
		case circuit.OpMul:
			l[g], r[g] = w[gate.A], w[gate.B]
		case circuit.OpAdd:
			l[g].Add(&w[gate.A], &w[gate.B])
			r[g] = one
		case circuit.OpSub:
			l[g].Sub(&w[gate.A], &w[gate.B])
			r[g] = one
		}
	}
	eq, err := poly.NewMultilinear(poly.EqTable(randomElements(rng, bits.TrailingZeros(uint(p.NumGates)))))
	if err != nil {
		return err
	}
	lp, err := poly.NewMultilinear(l)
	if err != nil {
		return err
	}
	rp, err := poly.NewMultilinear(r)
	if err != nil {
		return err
	}
	err = tr.do("sumcheck.triple", parent, job, func() error {
		_, _, _, _, err := sumcheck.ProveTriple(eq, lp, rp, transcript.New(probeDomain))
		return err
	})
	if err != nil {
		return err
	}
	vp, err := poly.NewMultilinear(randomElements(rng, p.NumWires))
	if err != nil {
		return err
	}
	wp, err := poly.NewMultilinear(append([]field.Element(nil), padded...))
	if err != nil {
		return err
	}
	return tr.do("sumcheck.product", parent, job, func() error {
		_, _, _, _, err := sumcheck.ProveProduct(vp, wp, transcript.New(probeDomain))
		return err
	})
}

// probeCommit commits to values with the polynomial commitment (the
// streaming committer when streaming is set) and opens it at a random
// point, then recomputes the same commitment from its parts — one
// encoder.Encode per row and merkle.BuildFromColumns over the encoded
// columns — and checks that both give the same root. It returns the
// recomputed tree.
func probeCommit(tr *tracer, rep *report, parent, job int, values []field.Element, params pcs.Params, streaming bool) (*merkle.Tree, error) {
	rng := rand.New(rand.NewSource(int64(job)))
	point := randomElements(rng, bits.TrailingZeros(uint(len(values))))
	var root sha2.Digest
	if streaming {
		var ss *pcs.StreamState
		err := tr.do("pcs.stream_commit", parent, job, func() error {
			sc, err := pcs.NewStreamingCommitter(params, pcs.RetainTree)
			if err != nil {
				return err
			}
			if err := sc.AddChunk(values); err != nil {
				return err
			}
			ss, err = sc.Finish()
			return err
		})
		if err != nil {
			return nil, err
		}
		rowAt := func(r int) []field.Element { return values[r*params.NumCols : (r+1)*params.NumCols] }
		err = tr.do("pcs.stream_prove_eval", parent, job, func() error {
			_, _, err := ss.ProveEval(rowAt, point, transcript.New(probeDomain))
			return err
		})
		if err != nil {
			return nil, err
		}
		root = ss.Commitment().Root
	} else {
		var st *pcs.ProverState
		err := tr.do("pcs.commit", parent, job, func() (err error) {
			st, err = pcs.Commit(values, params)
			return err
		})
		if err != nil {
			return nil, err
		}
		err = tr.do("pcs.prove_eval", parent, job, func() error {
			_, _, err := st.ProveEval(point, transcript.New(probeDomain))
			return err
		})
		if err != nil {
			return nil, err
		}
		root = st.Commitment().Root
	}

	enc, err := encoder.Cached(params.NumCols, params.Enc)
	if err != nil {
		return nil, err
	}
	encoded := make([][]field.Element, params.NumRows)
	for r := range encoded {
		row := values[r*params.NumCols : (r+1)*params.NumCols]
		err := tr.do("encoder.encode", parent, job, func() (err error) {
			encoded[r], err = enc.Encode(row)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	cols := make([][]field.Element, enc.CodewordLen())
	for j := range cols {
		cols[j] = make([]field.Element, params.NumRows)
		for r := range encoded {
			cols[j][r] = encoded[r][j]
		}
	}
	var tree *merkle.Tree
	err = tr.do("merkle.build", parent, job, func() (err error) {
		tree, err = merkle.BuildFromColumns(cols)
		return err
	})
	if err != nil {
		return nil, err
	}
	if tree.Root() != root {
		rep.reject("probe job %d: encoder+merkle root differs from the commitment's", job)
	}
	return tree, nil
}

// addCommitMetrics adds the encoder, merkle and pcs metrics of the
// probe's commitments; tree is one recomputed column tree.
func addCommitMetrics(tr *tracer, rep *report, params pcs.Params, tree *merkle.Tree, streaming bool) {
	if streaming {
		tr.addSpanMetric(rep, "pcs.stream_commit_ms", "pcs.stream_commit", "ms", 1)
		tr.addSpanMetric(rep, "pcs.stream_prove_eval_ms", "pcs.stream_prove_eval", "ms", 1)
	} else {
		tr.addSpanMetric(rep, "pcs.commit_ms", "pcs.commit", "ms", 1)
		tr.addSpanMetric(rep, "pcs.prove_eval_ms", "pcs.prove_eval", "ms", 1)
	}
	tr.addSpanMetric(rep, "encoder.encode_us_per_row", "encoder.encode", "us", 1)
	tr.addSpanMetric(rep, "merkle.build_ms", "merkle.build", "ms", 1)
	if enc, err := encoder.Cached(params.NumCols, params.Enc); err == nil {
		rep.add("encoder.nonzeros_per_row", "count", float64(enc.WorkNonZeros()), 1)
	}
	if tree != nil {
		// Interior nodes take one compression each; a leaf hashes its
		// column's 32-byte elements with standard SHA-256 padding.
		perLeaf := (params.NumRows*field.Bytes + 9 + sha2.BlockSize - 1) / sha2.BlockSize
		rep.add("merkle.compressions", "count", float64(tree.NumCompressions()+tree.NumLeaves()*perLeaf), 1)
	}
}

// addProbeHealth times the two innermost primitives in isolation and
// reports how much of the probe's proofs no layer span covers.
func addProbeHealth(tr *tracer, rep *report) {
	const compressions, muls = 1 << 15, 1 << 20
	var d1, d2 sha2.Digest
	d2[0] = 1
	_ = tr.do("sha2.compress", 0, -1, func() error {
		for i := 0; i < compressions; i++ {
			d1 = sha2.Compress2(&d1, &d2)
		}
		return nil
	})
	x, y := field.NewElement(3), field.NewElement(5)
	_ = tr.do("field.mul", 0, -1, func() error {
		for i := 0; i < muls; i++ {
			x.Mul(&x, &y)
		}
		return nil
	})
	if d1 == d2 || x.IsZero() {
		rep.reject("probe: primitive chain degenerated")
	}
	tr.addSpanMetric(rep, "sha2.compress_ns", "sha2.compress", "ns", compressions)
	tr.addSpanMetric(rep, "field.mul_ns", "field.mul", "ns", muls)
	if frac, n := tr.unattributed("probe.proof"); n > 0 {
		rep.add("probe.unattributed_frac", "fraction", frac, n)
	}
}
