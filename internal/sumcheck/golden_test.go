package sumcheck

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"batchzk/internal/field"
	"batchzk/internal/transcript"
)

// digestOf hashes field elements in order.
func digestOf(groups ...[]field.Element) string {
	h := sha256.New()
	for _, g := range groups {
		for i := range g {
			b := g[i].ToBytes()
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func flatEvals(p *Proof) []field.Element {
	var out []field.Element
	for _, rd := range p.Rounds {
		out = append(out, rd.Evals...)
	}
	return out
}

// TestInstancesGolden pins each named instance's round messages,
// challenge point, claim and final values at 2^12 on fixed tables. The
// product, affine, triple and fixed-challenge digests were taken from the
// four specialized provers this kernel replaced. The plain transcript
// instance absorbs each round under the uniform "sumcheck/round" label
// instead of the old "sumcheck/p1" and "sumcheck/p2" pair, so its digest
// was taken from the kernel.
func TestInstancesGolden(t *testing.T) {
	const n = 12
	rng := rand.New(rand.NewSource(7))
	a, b, c := randMultilinearFrom(rng, n), randMultilinearFrom(rng, n), randMultilinearFrom(rng, n)
	rs := make([]field.Element, n)
	for i := range rs {
		rs[i].SetUint64(uint64(1000 + i))
	}
	check := func(name, want string, groups ...[]field.Element) {
		t.Helper()
		if got := digestOf(groups...); got != want {
			t.Errorf("%s: digest %s, want %s", name, got, want)
		}
	}

	pr, pt, claim := Prove(a.Clone(), transcript.New("golden"))
	check("plain", "9a59c2cf84d1ccbb3618a7c8c877eaddd7b262d9c53b39a62f075cf91925387c", flatEvals(pr), pt, []field.Element{claim})

	pr, final, err := ProveWithChallenges(a.Clone(), rs)
	if err != nil {
		t.Fatal(err)
	}
	check("fixed", "865c725ae5caa429eab3909b8888b46af87173fa268a989ebf62a57d9ad05fe4", flatEvals(pr), []field.Element{final})

	pr, pt, claim, f2, err := ProveProduct(a, b, transcript.New("golden"))
	if err != nil {
		t.Fatal(err)
	}
	check("product", "838f2210ba404d7bb95525aabebbf27b22f09b3a5b3724ddc51017d171fd9e9a", flatEvals(pr), pt, []field.Element{claim}, f2[:])

	var sum, tmp field.Element
	for i := range a.Evals() {
		tmp.Mul(&a.Evals()[i], &b.Evals()[i])
		sum.Add(&sum, &tmp)
		sum.Add(&sum, &c.Evals()[i])
	}
	pr, pt, f3, err := ProveAffineProduct(a, b, c, sum, transcript.New("golden"))
	if err != nil {
		t.Fatal(err)
	}
	check("affine", "d79dff983922169e6602902a514e4ead898785fb2b58c988848980bdf0e7b9a8", flatEvals(pr), pt, f3[:])

	pr, pt, claim, f3, err = ProveTriple(a, b, c, transcript.New("golden"))
	if err != nil {
		t.Fatal(err)
	}
	check("triple", "8324d865471656a6d9d4e522ffc86b1d76dae7c23bb346a62ad2c18faa2d304d", flatEvals(pr), pt, []field.Element{claim}, f3[:])
}
