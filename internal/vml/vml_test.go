package vml

import (
	"testing"

	"batchzk/internal/field"
	"batchzk/internal/nn"
	"batchzk/internal/perfmodel"
)

func newTinyService(t testing.TB) *Service {
	t.Helper()
	svc, err := NewService(nn.TinyCNN(99), 2)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestEndToEndMLaaS(t *testing.T) {
	svc := newTinyService(t)
	client := svc.Client()
	if client.ModelRoot() != svc.ModelRoot() {
		t.Fatal("client holds a different commitment")
	}

	images := []*nn.Tensor{
		nn.RandImage(1, 8, 8, 1),
		nn.RandImage(1, 8, 8, 2),
		nn.RandImage(1, 8, 8, 3),
	}
	preds, err := svc.HandleBatch(images)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range preds {
		if p.Err != nil {
			t.Fatalf("prediction %d: %v", i, p.Err)
		}
		// Class must match direct engine inference.
		want, err := svc.net.Classify(images[i])
		if err != nil {
			t.Fatal(err)
		}
		if p.Class != want {
			t.Fatalf("prediction %d: class %d, engine says %d", i, p.Class, want)
		}
		if err := client.VerifyPrediction(images[i], &p); err != nil {
			t.Fatalf("prediction %d: %v", i, err)
		}
	}
}

func TestClientRejectsModelSubstitution(t *testing.T) {
	// Two services with different models: proofs from one must not verify
	// against the other's commitment.
	svcA := newTinyService(t)
	svcB, err := NewService(nn.TinyCNN(1234), 2) // different weights
	if err != nil {
		t.Fatal(err)
	}
	clientA := svcA.Client()
	img := nn.RandImage(1, 8, 8, 7)
	predsB, err := svcB.HandleBatch([]*nn.Tensor{img})
	if err != nil {
		t.Fatal(err)
	}
	if predsB[0].Err != nil {
		t.Fatal(predsB[0].Err)
	}
	if err := clientA.VerifyPrediction(img, &predsB[0]); err == nil {
		t.Fatal("client accepted a proof from a substituted model")
	}
}

func TestClientRejectsTamperedPrediction(t *testing.T) {
	svc := newTinyService(t)
	client := svc.Client()
	img := nn.RandImage(1, 8, 8, 9)
	preds, _ := svc.HandleBatch([]*nn.Tensor{img})
	p := preds[0]
	if p.Err != nil {
		t.Fatal(p.Err)
	}

	tampered := p
	tampered.Class = (p.Class + 1) % 10
	if err := client.VerifyPrediction(img, &tampered); err == nil {
		t.Fatal("client accepted a tampered class")
	}

	tampered = p
	tampered.Logits = append([]int64{}, p.Logits...)
	tampered.Logits[0] += 5
	if err := client.VerifyPrediction(img, &tampered); err == nil {
		t.Fatal("client accepted tampered logits")
	}

	// Wrong image: the proof pins the public inputs.
	other := nn.RandImage(1, 8, 8, 10)
	if err := client.VerifyPrediction(other, &p); err == nil {
		t.Fatal("client accepted a proof for a different image")
	}

	if err := client.VerifyPrediction(img, nil); err == nil {
		t.Fatal("client accepted a nil prediction")
	}
	noProof := p
	noProof.Proof = nil
	if err := client.VerifyPrediction(img, &noProof); err == nil {
		t.Fatal("client accepted a missing proof")
	}
}

func TestMLPService(t *testing.T) {
	// The flow works for fully connected models too (4 output classes).
	svc, err := NewService(nn.TinyMLP(31), 2)
	if err != nil {
		t.Fatal(err)
	}
	client := svc.Client()
	img := nn.RandImage(1, 4, 4, 32)
	preds, err := svc.HandleBatch([]*nn.Tensor{img})
	if err != nil {
		t.Fatal(err)
	}
	if preds[0].Err != nil {
		t.Fatal(preds[0].Err)
	}
	if len(preds[0].Logits) != 4 {
		t.Fatalf("MLP produced %d logits", len(preds[0].Logits))
	}
	if err := client.VerifyPrediction(img, &preds[0]); err != nil {
		t.Fatal(err)
	}
}

func TestModelBlockAudit(t *testing.T) {
	svc := newTinyService(t)
	client := svc.Client()
	mp, leaves, err := svc.OpenModelBlocks([]int{0, 3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.VerifyModelBlocks(mp, leaves); err != nil {
		t.Fatal(err)
	}
	// Openings from a different model must not verify.
	other, _ := NewService(nn.TinyCNN(777), 2)
	mpOther, leavesOther, _ := other.OpenModelBlocks([]int{0, 3, 7})
	if err := client.VerifyModelBlocks(mpOther, leavesOther); err == nil {
		t.Fatal("accepted an opening from a different model")
	}
	if _, _, err := svc.OpenModelBlocks([]int{1 << 30}); err == nil {
		t.Fatal("out-of-range block accepted")
	}
}

func TestCommitModelDeterminism(t *testing.T) {
	net := nn.TinyCNN(5)
	t1, err := CommitModel(net)
	if err != nil {
		t.Fatal(err)
	}
	t2, _ := CommitModel(nn.TinyCNN(5))
	if t1.Root() != t2.Root() {
		t.Fatal("same model produced different roots")
	}
	t3, _ := CommitModel(nn.TinyCNN(6))
	if t1.Root() == t3.Root() {
		t.Fatal("different models produced the same root")
	}
	// ρ depends on the root.
	r1 := BindingChallenge(t1.Root())
	r3 := BindingChallenge(t3.Root())
	if r1.Equal(&r3) {
		t.Fatal("binding challenge ignores the root")
	}
}

func TestEffectiveScale(t *testing.T) {
	vgg := nn.VGG16(1)
	scale := EffectiveScale(vgg)
	// Parameters (≈14.7M) + activations (≈0.3M) round to 2^24.
	if scale != 1<<24 {
		t.Fatalf("VGG-16 effective scale = 2^%d, want 2^24", log2(scale))
	}
	tiny := nn.TinyCNN(1)
	if EffectiveScale(tiny) >= scale {
		t.Fatal("tiny network should have a smaller scale")
	}
}

func log2(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}

func TestSimulatePerformanceVGG(t *testing.T) {
	rep, err := SimulatePerformance(perfmodel.GH200(), nn.VGG16(1), 1024)
	if err != nil {
		t.Fatal(err)
	}
	// Table 11's headline: sub-second amortized proof generation, i.e.
	// throughput well above 1 proof/s, and the latency/throughput
	// trade-off of the pipeline (latency in seconds, not milliseconds).
	if rep.ThroughputPerSec < 1 {
		t.Fatalf("throughput %.2f proofs/s — not sub-second generation", rep.ThroughputPerSec)
	}
	if rep.LatencySec < 0.1 {
		t.Fatalf("latency %.3f s suspiciously low for a deep pipeline", rep.LatencySec)
	}
	// The CPU baselines of Table 11 are 48–637 s per proof; ours must be
	// orders of magnitude above their throughput.
	if rep.ThroughputPerSec < 100*0.0208 {
		t.Fatalf("throughput %.2f proofs/s does not clear ZENO (0.0208/s) by 100×", rep.ThroughputPerSec)
	}
}

func TestDecodeSigned(t *testing.T) {
	var e field.Element
	e.SetInt64(-42)
	v, err := decodeSigned(&e)
	if err != nil || v != -42 {
		t.Fatalf("decode(-42) = %d, %v", v, err)
	}
	e.SetInt64(1 << 40)
	v, err = decodeSigned(&e)
	if err != nil || v != 1<<40 {
		t.Fatalf("decode(2^40) = %d, %v", v, err)
	}
	e.Rand() // overwhelming likely not small
	if _, err := decodeSigned(&e); err == nil {
		t.Skip("random element happened to be small (p < 2^-190)")
	}
}
