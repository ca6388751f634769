package sumcheck

import (
	"math/rand"
	"testing"

	"batchzk/internal/field"
	"batchzk/internal/transcript"
)

// BenchmarkInstances times each named instance at 2^14 and reports
// ns per table element (one element of each of its k tables).
func BenchmarkInstances(b *testing.B) {
	const n = 14
	rng := rand.New(rand.NewSource(1))
	x, y, z := randMultilinearFrom(rng, n), randMultilinearFrom(rng, n), randMultilinearFrom(rng, n)
	var claim, t field.Element
	for i := range x.Evals() {
		t.Mul(&x.Evals()[i], &y.Evals()[i])
		claim.Add(&claim, &t)
		claim.Add(&claim, &z.Evals()[i])
	}
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"plain", func() error { Prove(x, transcript.New("bench")); return nil }},
		{"product", func() error { _, _, _, _, err := ProveProduct(x, y, transcript.New("bench")); return err }},
		{"affine", func() error { _, _, _, err := ProveAffineProduct(x, y, z, claim, transcript.New("bench")); return err }},
		{"triple", func() error { _, _, _, _, err := ProveTriple(x, y, z, transcript.New("bench")); return err }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := c.run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N<<n), "ns/elem")
		})
	}
}
