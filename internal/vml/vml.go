// Package vml implements the verifiable machine-learning application of
// the paper's §5: a Machine-Learning-as-a-Service deployment where the
// service provider commits to a model once, answers prediction queries
// with the ML engine (internal/nn), and uses the fully pipelined batch
// prover (internal/core) to attach a proof to every prediction, which the
// customer verifies against the model commitment.
//
// The flow matches Figure 8:
//
//	preprocessing:  Merkle-commit the model parameters → root; compile the
//	                inference function to a circuit (bound to the
//	                commitment via a Fiat–Shamir Horner hash);
//	prediction:     the engine computes the logits/class for each input;
//	proving:        the batch prover streams the queries through the
//	                pipeline, one proof per prediction;
//	verification:   the customer checks the proof, the binding hash, and
//	                reads the prediction from the pinned outputs.
package vml

import (
	"context"
	"fmt"
	"math/bits"

	"batchzk/internal/circuit"
	"batchzk/internal/core"
	"batchzk/internal/field"
	"batchzk/internal/gpusim"
	"batchzk/internal/merkle"
	"batchzk/internal/nn"
	"batchzk/internal/perfmodel"
	"batchzk/internal/protocol"
	"batchzk/internal/sha2"
	"batchzk/internal/telemetry"
	"batchzk/internal/transcript"
)

// Service is the provider side: the model, its commitment, and the prover.
type Service struct {
	net      *nn.Network
	compiled *nn.Compiled
	params   *protocol.Params
	prover   *core.BatchProver

	modelTree *merkle.Tree
	rho       field.Element
	modelHash field.Element
}

// NewService commits to the network's parameters, compiles the bound
// inference circuit, and prepares the batch prover with the given
// pipeline depth.
func NewService(net *nn.Network, depth int) (*Service, error) {
	tree, err := CommitModel(net)
	if err != nil {
		return nil, err
	}
	rho := BindingChallenge(tree.Root())
	compiled, err := nn.CompileBound(net, rho)
	if err != nil {
		return nil, err
	}
	p, err := protocol.Setup(compiled.Circuit)
	if err != nil {
		return nil, err
	}
	prover, err := core.NewBatchProver(compiled.Circuit, p, depth)
	if err != nil {
		return nil, err
	}
	return &Service{
		net: net, compiled: compiled, params: p, prover: prover,
		modelTree: tree, rho: rho,
		modelHash: nn.ParamsHash(net.Parameters(), rho),
	}, nil
}

// CommitModel builds the Merkle commitment over the model parameters
// (each 512-bit block packs eight 64-bit fixed-point values).
func CommitModel(net *nn.Network) (*merkle.Tree, error) {
	params := net.Parameters()
	if len(params) == 0 {
		return nil, fmt.Errorf("vml: model has no parameters")
	}
	var blocks []merkle.Block
	var cur merkle.Block
	n := 0
	for _, p := range params {
		for i := 0; i < 8; i++ {
			cur[n*8+i] = byte(uint64(p) >> (8 * i))
		}
		n++
		if n == 8 {
			blocks = append(blocks, cur)
			cur, n = merkle.Block{}, 0
		}
	}
	if n > 0 {
		blocks = append(blocks, cur)
	}
	blocks = merkle.PadBlocks(blocks)
	return merkle.Build(blocks)
}

// BindingChallenge derives the Horner-hash base ρ from the model's Merkle
// root by Fiat–Shamir.
func BindingChallenge(root sha2.Digest) field.Element {
	tr := transcript.New("vml/binding")
	tr.AppendDigest("model-root", root)
	return tr.ChallengeElement("rho")
}

// ModelRoot returns the public model commitment.
func (s *Service) ModelRoot() sha2.Digest { return s.modelTree.Root() }

// OpenModelBlocks returns a batched Merkle opening of the requested
// parameter blocks — the data-availability spot check a customer can run
// against the commitment without learning the rest of the model — and
// the opened blocks' leaf digests, aligned to the proof's sorted indices.
func (s *Service) OpenModelBlocks(indices []int) (*merkle.MultiProof, []sha2.Digest, error) {
	mp, err := s.modelTree.ProveMulti(indices)
	if err != nil {
		return nil, nil, err
	}
	leaves := make([]sha2.Digest, len(mp.Indices))
	for k, i := range mp.Indices {
		if leaves[k], err = s.modelTree.Leaf(i); err != nil {
			return nil, nil, err
		}
	}
	return mp, leaves, nil
}

// VerifyModelBlocks checks a spot-check opening of the given leaf
// digests against the commitment the client holds.
func (c *Client) VerifyModelBlocks(mp *merkle.MultiProof, leaves []sha2.Digest) error {
	if !merkle.VerifyMulti(c.modelRoot, mp, leaves) {
		return fmt.Errorf("vml: model-block opening does not match the commitment")
	}
	return nil
}

// Client returns the public verification material a customer needs.
func (s *Service) Client() *Client {
	return &Client{
		circuit:   s.compiled.Circuit,
		params:    s.params,
		modelRoot: s.modelTree.Root(),
		modelHash: s.modelHash,
		// All outputs but the trailing binding hash are logits.
		numLogits: len(s.compiled.Circuit.Outputs) - 1,
	}
}

// Prediction is one answered query: the class, the raw logits, and the
// proof binding them to the committed model.
type Prediction struct {
	Class  int
	Logits []int64
	Proof  *protocol.Proof
	Err    error
}

// HandleBatch answers a batch of queries: predictions immediately, proofs
// via the pipelined batch prover.
func (s *Service) HandleBatch(images []*nn.Tensor) ([]Prediction, error) {
	return s.HandleBatchContext(context.Background(), images)
}

// HandleBatchContext is HandleBatch with request-scoped job identity: a
// flight-recorder trace id carried by ctx (telemetry.WithTraceID) is
// stamped on a single-query batch, so the service request and the
// prover's per-job timeline share one id across the API boundary. A
// multi-image batch always mints fresh per-job ids — one context id
// cannot name several jobs.
func (s *Service) HandleBatchContext(ctx context.Context, images []*nn.Tensor) ([]Prediction, error) {
	jobs := make([]core.Job, len(images))
	preds := make([]Prediction, len(images))
	for i, img := range images {
		public, secret, err := s.compiled.BuildInputs(img)
		if err != nil {
			return nil, fmt.Errorf("vml: image %d: %w", i, err)
		}
		jobs[i] = core.Job{ID: i, Public: public, Secret: secret}
	}
	if len(jobs) == 1 {
		jobs[0].Trace = telemetry.TraceIDFrom(ctx)
	}
	results := s.prover.ProveBatch(jobs)
	for i, r := range results {
		preds[i].Err = r.Err
		if r.Err != nil {
			continue
		}
		preds[i].Proof = r.Proof
		logits, class, err := logitsFromOutputs(r.Proof.Outputs, s.compiled.Bound)
		if err != nil {
			preds[i].Err = err
			continue
		}
		preds[i].Logits = logits
		preds[i].Class = class
	}
	return preds, nil
}

// logitsFromOutputs strips the binding-hash output and decodes the logits.
func logitsFromOutputs(outputs []field.Element, bound bool) ([]int64, int, error) {
	n := len(outputs)
	if bound {
		n--
	}
	if n <= 0 {
		return nil, 0, fmt.Errorf("vml: proof carries no logits")
	}
	logits := make([]int64, n)
	best := 0
	for i := 0; i < n; i++ {
		v, err := decodeSigned(&outputs[i])
		if err != nil {
			return nil, 0, err
		}
		logits[i] = v
		if v > logits[best] {
			best = i
		}
	}
	return logits, best, nil
}

// decodeSigned maps a field element back to a small signed integer.
func decodeSigned(e *field.Element) (int64, error) {
	if v, ok := e.Uint64(); ok && bits.Len64(v) < 63 {
		return int64(v), nil
	}
	var neg field.Element
	neg.Neg(e)
	if v, ok := neg.Uint64(); ok && bits.Len64(v) < 63 {
		return -int64(v), nil
	}
	return 0, fmt.Errorf("vml: output is not a small integer")
}

// Client is the customer side: public verification material only — it
// never sees the model parameters.
type Client struct {
	circuit   *circuit.Circuit
	params    *protocol.Params
	modelRoot sha2.Digest
	modelHash field.Element
	numLogits int
}

// ModelRoot returns the commitment the client trusts.
func (c *Client) ModelRoot() sha2.Digest { return c.modelRoot }

// VerifyPrediction checks that a prediction was computed by the committed
// model on the client's image: the ZK proof must verify, the binding-hash
// output must match the committed model hash, and the claimed logits must
// equal the proof's pinned outputs.
func (c *Client) VerifyPrediction(img *nn.Tensor, pred *Prediction) error {
	if pred == nil || pred.Proof == nil {
		return fmt.Errorf("vml: missing proof")
	}
	public := make([]field.Element, img.Len())
	for i, v := range img.Data {
		public[i].SetInt64(v)
	}
	if err := protocol.Verify(c.circuit, c.params, public, pred.Proof); err != nil {
		return fmt.Errorf("vml: %w", err)
	}
	outs := pred.Proof.Outputs
	if len(outs) != c.numLogits+1 {
		return fmt.Errorf("vml: proof carries %d outputs, want %d", len(outs), c.numLogits+1)
	}
	// Model binding.
	hash := outs[len(outs)-1]
	if !hash.Equal(&c.modelHash) {
		return fmt.Errorf("vml: proof was generated with a different model")
	}
	// Claimed logits and class must match the pinned outputs.
	logits, class, err := logitsFromOutputs(outs, true)
	if err != nil {
		return err
	}
	if class != pred.Class {
		return fmt.Errorf("vml: claimed class %d, proof says %d", pred.Class, class)
	}
	for i := range logits {
		if i < len(pred.Logits) && logits[i] != pred.Logits[i] {
			return fmt.Errorf("vml: logit %d mismatch", i)
		}
	}
	return nil
}

// EffectiveScale estimates the proving circuit scale of a network under a
// sum-check-based CNN proof system: zkCNN-style protocols prove
// convolutions at a cost proportional to parameters + activations (not
// MACs), so the scale is the next power of two covering both.
func EffectiveScale(net *nn.Network) int {
	activations := 0
	c, h, w := net.InC, net.InH, net.InW
	for _, l := range net.Layers {
		c, h, w = l.OutShape(c, h, w)
		activations += c * h * w
	}
	n := net.NumParameters() + activations
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// PerformanceReport is the Table 11 row for our system.
type PerformanceReport struct {
	Scale            int
	ThroughputPerSec float64
	LatencySec       float64
}

// SimulatePerformance models the verifiable-ML proof generation of a
// network on a device — the "Ours" column of Table 11.
func SimulatePerformance(spec gpusim.DeviceSpec, net *nn.Network, batch int) (*PerformanceReport, error) {
	scale := EffectiveScale(net)
	rep, err := core.SimulateSystem(spec, perfmodel.GPUCosts(), scale, batch, true)
	if err != nil {
		return nil, err
	}
	return &PerformanceReport{
		Scale:            scale,
		ThroughputPerSec: rep.ThroughputPerMs() * 1000,
		LatencySec:       rep.LatencyNs / 1e9,
	}, nil
}
