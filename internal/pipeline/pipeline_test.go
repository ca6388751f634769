package pipeline

import (
	"math/rand"
	"testing"
	"testing/quick"

	"batchzk/internal/encoder"
	"batchzk/internal/field"
	"batchzk/internal/merkle"
	"batchzk/internal/perfmodel"
	"batchzk/internal/poly"
	"batchzk/internal/sumcheck"
)

func TestBatchMerkleMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 16, 64} {
		var tasks [][]merkle.Block
		for i := 0; i < 7; i++ {
			blocks := make([]merkle.Block, n)
			for j := range blocks {
				r.Read(blocks[j][:])
			}
			tasks = append(tasks, blocks)
		}
		roots, err := BatchMerkle(tasks)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i, tk := range tasks {
			tree, err := merkle.Build(tk)
			if err != nil {
				t.Fatal(err)
			}
			if roots[i] != tree.Root() {
				t.Fatalf("n=%d task=%d: pipelined root differs from merkle.Build", n, i)
			}
		}
	}
	if _, err := BatchMerkle(nil); err == nil {
		t.Fatal("accepted empty batch")
	}
	if _, err := BatchMerkle([][]merkle.Block{make([]merkle.Block, 3)}); err == nil {
		t.Fatal("accepted non-power-of-two blocks")
	}
	if _, err := BatchMerkle([][]merkle.Block{make([]merkle.Block, 4), make([]merkle.Block, 8)}); err == nil {
		t.Fatal("accepted ragged batch")
	}
}

func TestBatchSumcheckMatchesSequential(t *testing.T) {
	nVars := 6
	batch := 9
	tables := make([][]field.Element, batch)
	challenges := make([][]field.Element, batch)
	for i := range tables {
		tables[i] = field.RandVector(1 << nVars)
		challenges[i] = field.RandVector(nVars)
	}
	results, err := BatchSumcheck(tables, func(task, round int, _, _ field.Element) field.Element {
		return challenges[task][round]
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tables {
		m, err := poly.NewMultilinear(append([]field.Element{}, tables[i]...))
		if err != nil {
			t.Fatal(err)
		}
		want, wantFinal, err := sumcheck.ProveWithChallenges(m, challenges[i])
		if err != nil {
			t.Fatal(err)
		}
		got := results[i]
		if len(got.Proof.Rounds) != len(want.Rounds) {
			t.Fatalf("task %d round count", i)
		}
		for r := range want.Rounds {
			if !field.VectorEqual(got.Proof.Rounds[r].Evals, want.Rounds[r].Evals) {
				t.Fatalf("task %d round %d differs from sequential prover", i, r)
			}
		}
		if !got.Final.Equal(&wantFinal) {
			t.Fatalf("task %d final differs", i)
		}
	}
	if _, err := BatchSumcheck(nil, nil); err == nil {
		t.Fatal("accepted empty batch")
	}
	if _, err := BatchSumcheck([][]field.Element{make([]field.Element, 3)}, nil); err == nil {
		t.Fatal("accepted non-power-of-two table")
	}
}

func TestBatchEncodeMatchesSequential(t *testing.T) {
	enc, err := encoder.New(128, encoder.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	msgs := make([][]field.Element, 6)
	for i := range msgs {
		msgs[i] = field.RandVector(128)
	}
	got, err := BatchEncode(enc, msgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range msgs {
		want, err := enc.Encode(msgs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !field.VectorEqual(got[i], want) {
			t.Fatalf("task %d: pipelined codeword differs from Encode", i)
		}
	}
	// Base-size messages (zero matrix stages).
	base, _ := encoder.New(16, encoder.DefaultParams())
	bm := [][]field.Element{field.RandVector(16), field.RandVector(16)}
	bGot, err := BatchEncode(base, bm)
	if err != nil {
		t.Fatal(err)
	}
	bWant, _ := base.Encode(bm[0])
	if !field.VectorEqual(bGot[0], bWant) {
		t.Fatal("base-size pipelined codeword differs")
	}
	if _, err := BatchEncode(enc, nil); err == nil {
		t.Fatal("accepted empty batch")
	}
	if _, err := BatchEncode(enc, [][]field.Element{field.RandVector(64)}); err == nil {
		t.Fatal("accepted wrong message length")
	}
}

func TestDoubleBufferDiscipline(t *testing.T) {
	db := NewDoubleBuffer[int](4)
	// Correct usage: read one, write the other, advance.
	for p := 0; p < 6; p++ {
		r := db.ReadBuf()
		w := db.WriteBuf()
		if &r[0] == &w[0] {
			t.Fatal("read and write buffers alias")
		}
		w[0] = p
		if err := db.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	// The value written last period is readable this period.
	w := db.WriteBuf()
	w[1] = 42
	if err := db.Advance(); err != nil {
		t.Fatal(err)
	}
	if got := db.ReadBuf()[1]; got != 42 {
		t.Fatalf("read %d, want 42", got)
	}
}

func TestDoubleBufferViolation(t *testing.T) {
	db := NewDoubleBuffer[int](2)
	_ = db.ReadBuf()
	_ = db.WriteBuf()
	_ = db.ReadBuf()
	// Force a violation: grab the write buffer again after advancing the
	// period manually through misuse — simulate by reading and writing the
	// same buffer via two period calls without Advance.
	db.period++       // misuse: period changed under the hood
	_ = db.ReadBuf()  // now reads the buffer written above
	_ = db.WriteBuf() // and writes the one read above
	db.period--
	if err := db.Advance(); err == nil {
		t.Fatal("missed read/write overlap")
	}
}

func TestDoubleBufferPropertyAlternation(t *testing.T) {
	f := func(steps uint8) bool {
		db := NewDoubleBuffer[byte](1)
		var lastWrite *byte
		for s := 0; s < int(steps%32)+2; s++ {
			r := db.ReadBuf()
			w := db.WriteBuf()
			if &r[0] == &w[0] {
				return false
			}
			// This period's read buffer must be last period's write buffer.
			if lastWrite != nil && &r[0] != lastWrite {
				return false
			}
			lastWrite = &w[0]
			if err := db.Advance(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestWarpImbalance(t *testing.T) {
	// Uniform rows: no imbalance regardless of sorting.
	uniform := make([]byte, 64)
	for i := range uniform {
		uniform[i] = 10
	}
	if got := WarpImbalance(uniform, false); got != 1 {
		t.Fatalf("uniform imbalance = %v", got)
	}
	// Alternating 1/21 rows: unsorted warps all pay max=21 → factor
	// 32·21·2 / (22·32) = 21/11 ≈ 1.9; sorted groups separate them.
	skewed := make([]byte, 64)
	for i := range skewed {
		if i%2 == 0 {
			skewed[i] = 1
		} else {
			skewed[i] = 21
		}
	}
	unsorted := WarpImbalance(skewed, false)
	sorted := WarpImbalance(skewed, true)
	if unsorted <= sorted {
		t.Fatalf("sorting should help: unsorted=%.3f sorted=%.3f", unsorted, sorted)
	}
	if sorted != 1 {
		t.Fatalf("perfectly separable rows should sort to 1, got %.3f", sorted)
	}
	if WarpImbalance(nil, true) != 1 {
		t.Fatal("empty rows should be neutral")
	}
	if WarpImbalance(make([]byte, 8), false) != 1 {
		t.Fatal("all-zero rows should be neutral")
	}
	// sortedCopy helper agrees with the bucket sort's grouping cost.
	sc := sortedCopy(skewed)
	if WarpImbalance(sc, false) != sorted {
		t.Fatal("sortedCopy and bucket sort disagree")
	}
}

func TestStageBuilders(t *testing.T) {
	costs := perfmodel.GPUCosts()
	ms, err := MerkleStages(64, costs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 7 { // leaves + 6 layers
		t.Fatalf("merkle stages = %d", len(ms))
	}
	work := 0.0
	for _, s := range ms {
		work += s.WorkOps
	}
	if work != 127 { // 2·64 − 1 compressions
		t.Fatalf("total merkle work = %v", work)
	}
	if _, err := MerkleStages(3, costs); err == nil {
		t.Fatal("accepted non-power-of-two")
	}

	ss, err := SumcheckStages(8, costs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 8 {
		t.Fatalf("sumcheck stages = %d", len(ss))
	}
	if ss[0].HostBytesIn != 256*perfmodel.FieldBytes {
		t.Fatal("sumcheck dynamic loading missing")
	}
	if _, err := SumcheckStages(0, costs); err == nil {
		t.Fatal("accepted zero variables")
	}

	enc, _ := encoder.New(128, encoder.DefaultParams())
	es := EncoderStages(enc, costs, true)
	if len(es) != 2*enc.NumStages()+1 {
		t.Fatalf("encoder stages = %d", len(es))
	}
	// Total matrix work must equal the encoder's own count.
	mads := 0.0
	for _, s := range es {
		if s.Name != "encoder/base" {
			mads += s.WorkOps
		}
	}
	if int(mads) != enc.WorkNonZeros() {
		t.Fatalf("encoder stage work %v != WorkNonZeros %d", mads, enc.WorkNonZeros())
	}
}

func TestSimulateModulesShapes(t *testing.T) {
	spec := perfmodel.RTX3090Ti()
	costs := perfmodel.GPUCosts()
	batch := 64

	// Merkle: pipelined throughput beats naive; latency is worse (Table 6).
	pm, err := SimulateMerkle(spec, costs, 1<<14, batch, Pipelined, true)
	if err != nil {
		t.Fatal(err)
	}
	nm, err := SimulateMerkle(spec, costs, 1<<14, batch, Naive, false)
	if err != nil {
		t.Fatal(err)
	}
	if pm.ThroughputPerMs() <= nm.ThroughputPerMs() {
		t.Fatalf("merkle: pipelined %.3f ≤ naive %.3f trees/ms", pm.ThroughputPerMs(), nm.ThroughputPerMs())
	}
	if pm.LatencyNs <= nm.LatencyNs {
		t.Fatalf("merkle: pipelined latency should be higher (Table 6)")
	}
	// Memory: pipelined in-flight footprint below the naive batch load.
	if pm.PeakDeviceBytes >= nm.PeakDeviceBytes {
		t.Fatalf("merkle memory: pipelined %d ≥ naive %d", pm.PeakDeviceBytes, nm.PeakDeviceBytes)
	}

	// Sum-check.
	ps, err := SimulateSumcheck(spec, costs, 14, batch, Pipelined, true)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := SimulateSumcheck(spec, costs, 14, batch, Naive, false)
	if err != nil {
		t.Fatal(err)
	}
	if ps.ThroughputPerMs() <= ns.ThroughputPerMs() {
		t.Fatalf("sumcheck: pipelined %.3f ≤ naive %.3f proofs/ms", ps.ThroughputPerMs(), ns.ThroughputPerMs())
	}

	// Encoder: pipelined beats non-pipelined; sorted rows beat unsorted.
	enc, _ := encoder.New(1<<12, encoder.DefaultParams())
	pe, err := SimulateEncoder(spec, costs, enc, batch, Pipelined, true, true)
	if err != nil {
		t.Fatal(err)
	}
	ne, err := SimulateEncoder(spec, costs, enc, batch, Naive, false, true)
	if err != nil {
		t.Fatal(err)
	}
	if pe.ThroughputPerMs() <= ne.ThroughputPerMs() {
		t.Fatalf("encoder: pipelined %.3f ≤ np %.3f codes/ms", pe.ThroughputPerMs(), ne.ThroughputPerMs())
	}
	un, err := SimulateEncoder(spec, costs, enc, batch, Pipelined, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if un.ThroughputPerMs() > pe.ThroughputPerMs() {
		t.Fatalf("encoder: unsorted rows should not beat sorted")
	}

	// Unknown scheme errors.
	if _, err := SimulateMerkle(spec, costs, 1<<10, 1, Scheme("x"), false); err == nil {
		t.Fatal("unknown scheme accepted (merkle)")
	}
	if _, err := SimulateSumcheck(spec, costs, 10, 1, Scheme("x"), false); err == nil {
		t.Fatal("unknown scheme accepted (sumcheck)")
	}
	if _, err := SimulateEncoder(spec, costs, enc, 1, Scheme("x"), false, true); err == nil {
		t.Fatal("unknown scheme accepted (encoder)")
	}
}

func TestSpeedupGrowsForSmallerSizes(t *testing.T) {
	// Table 3's trend on the real module model.
	spec := perfmodel.GH200()
	costs := perfmodel.GPUCosts()
	speedup := func(logN int) float64 {
		p, err := SimulateMerkle(spec, costs, 1<<logN, 32, Pipelined, true)
		if err != nil {
			t.Fatal(err)
		}
		n, err := SimulateMerkle(spec, costs, 1<<logN, 32, Naive, false)
		if err != nil {
			t.Fatal(err)
		}
		return p.ThroughputPerMs() / n.ThroughputPerMs()
	}
	if s14, s20 := speedup(14), speedup(20); s14 <= s20 {
		t.Fatalf("speedup should grow as trees shrink: 2^14→%.2f 2^20→%.2f", s14, s20)
	}
}
