package protocol

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"batchzk/internal/circuit"
	"batchzk/internal/field"
)

// TestProofBytesGolden pins the BZK2 bytes of buffered and streaming
// proofs of fixed circuits and witnesses. The digests were taken before
// the four sum-check provers became instances of one kernel; any change
// to round messages, transcript labels or wire layout moves them.
func TestProofBytesGolden(t *testing.T) {
	golden := map[int]string{
		64:   "8359a496044c2dba12abb959e4f48be47a556a06ecf218d2f33bb555ad50d60c",
		2048: "a77ff55639f407372ca89511a9bd9f727c818c0cdff3b7fef2674581daf593c8",
	}
	for gates, want := range golden {
		c, err := circuit.RandomCircuit(gates, 2, 2, int64(gates))
		if err != nil {
			t.Fatal(err)
		}
		p, err := Setup(c)
		if err != nil {
			t.Fatal(err)
		}
		w, err := c.Evaluate(
			[]field.Element{field.NewElement(3), field.NewElement(5)},
			[]field.Element{field.NewElement(7), field.NewElement(11)})
		if err != nil {
			t.Fatal(err)
		}
		for name, prove := range map[string]func(*circuit.Circuit, *Params, circuit.Assignment) (*Proof, error){
			"buffered": ProveWitness, "streaming": ProveWitnessStreaming,
		} {
			proof, err := prove(c, p, w)
			if err != nil {
				t.Fatal(err)
			}
			data, err := proof.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%d gates, %s: proof digest %s, want %s", gates, name, got, want)
			}
		}
	}
}
