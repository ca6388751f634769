package pipeline

import (
	"errors"
	"testing"

	"batchzk/internal/encoder"
	"batchzk/internal/field"
)

// TestEncodePoisonedTaskIsolated: one malformed message poisons only its
// own task; every other codeword still matches the sequential encoder.
func TestEncodePoisonedTaskIsolated(t *testing.T) {
	enc, err := encoder.New(128, encoder.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	msgs := make([][]field.Element, 6)
	for i := range msgs {
		msgs[i] = field.RandVector(128)
	}
	msgs[2] = field.RandVector(64) // wrong length: fails in stage 0

	got, err := BatchEncode(enc, msgs)
	if err == nil {
		t.Fatal("malformed task did not surface an error")
	}
	var te *TaskErrors
	if !errors.As(err, &te) {
		t.Fatalf("error is not *TaskErrors: %v", err)
	}
	if te.Module != "encode" || len(te.Tasks) != 1 || te.Tasks[0].Task != 2 || te.Tasks[0].Stage != 0 {
		t.Fatalf("bad aggregate: %+v", te)
	}
	var single *TaskError
	if !errors.As(err, &single) || single.Task != 2 {
		t.Fatalf("errors.As does not reach the TaskError: %v", err)
	}
	// Partial results: the healthy tasks' codewords are intact.
	for i := range msgs {
		if i == 2 {
			if got[i] != nil {
				t.Fatal("poisoned task produced a codeword")
			}
			continue
		}
		want, err := enc.Encode(msgs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !field.VectorEqual(got[i], want) {
			t.Fatalf("task %d codeword corrupted by neighbor's failure", i)
		}
	}
}

// TestSumcheckPanicIsolated: a panicking challenge oracle poisons only
// its task — the double-buffer discipline and the neighbors survive.
func TestSumcheckPanicIsolated(t *testing.T) {
	const nVars, batch = 4, 5
	tables := make([][]field.Element, batch)
	challenges := make([][]field.Element, batch)
	for i := range tables {
		tables[i] = field.RandVector(1 << nVars)
		challenges[i] = field.RandVector(nVars)
	}
	results, err := BatchSumcheck(tables, func(task, round int, _, _ field.Element) field.Element {
		if task == 1 && round == 2 {
			panic("oracle corrupted")
		}
		return challenges[task][round]
	})
	var te *TaskErrors
	if !errors.As(err, &te) {
		t.Fatalf("want *TaskErrors, got %v", err)
	}
	if len(te.Tasks) != 1 || te.Tasks[0].Task != 1 || te.Tasks[0].Stage != 2 {
		t.Fatalf("bad aggregate: %+v", te)
	}
	// The healthy tasks reran through the shared buffers untouched:
	// compare against an all-healthy run of the same inputs.
	clean, cerr := BatchSumcheck(tables, func(task, round int, _, _ field.Element) field.Element {
		return challenges[task][round]
	})
	if cerr != nil {
		t.Fatal(cerr)
	}
	for i := range tables {
		if i == 1 {
			continue
		}
		for r := range clean[i].Proof.Rounds {
			if !field.VectorEqual(results[i].Proof.Rounds[r].Evals, clean[i].Proof.Rounds[r].Evals) {
				t.Fatalf("task %d round %d corrupted by neighbor's panic", i, r)
			}
		}
		if !results[i].Final.Equal(&clean[i].Final) {
			t.Fatalf("task %d final corrupted", i)
		}
	}
}

// TestMultipleTaskErrorsAggregated: several poisoned tasks all appear in
// the aggregate, in task order, and the message counts them.
func TestMultipleTaskErrorsAggregated(t *testing.T) {
	enc, err := encoder.New(128, encoder.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	msgs := make([][]field.Element, 5)
	for i := range msgs {
		msgs[i] = field.RandVector(128)
	}
	msgs[0] = field.RandVector(1)
	msgs[3] = field.RandVector(1)
	_, err = BatchEncode(enc, msgs)
	var te *TaskErrors
	if !errors.As(err, &te) {
		t.Fatalf("want *TaskErrors, got %v", err)
	}
	if len(te.Tasks) != 2 || te.Tasks[0].Task != 0 || te.Tasks[1].Task != 3 {
		t.Fatalf("bad aggregate: %+v", te)
	}
}
