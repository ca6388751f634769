package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"batchzk/internal/encoder"
	"batchzk/internal/field"
	"batchzk/internal/merkle"
	"batchzk/internal/ntt"
	"batchzk/internal/par"
	"batchzk/internal/pcs"
	"batchzk/internal/poly"
	"batchzk/internal/sha2"
	"batchzk/internal/sumcheck"
	"batchzk/internal/transcript"
)

// Kernels bench report: serial-vs-parallel timings of every hot kernel
// that runs on the par runtime (Merkle build, Spielman encode, the
// sum-check kernel at degrees 1–3, NTT, PCS commit, batch inversion), each with a bit-identity
// check between the two runs, plus the field-arith section (schema v2)
// pinning the ALU-floor microkernels against their generic references.
// Serialized as BENCH_kernels.json with the same "kind" discriminator
// convention as the scheduler report, so batchzk-profile compare can
// dispatch on file content.

// KernelsReportKind discriminates kernel reports in BENCH_*.json files.
const KernelsReportKind = "kernels"

// KernelsSchemaVersion identifies the BENCH_kernels.json layout.
// v2 added the field_arith section of ALU-floor microkernel timings.
const KernelsSchemaVersion = 2

// KernelResult is one kernel's serial-vs-parallel measurement. Identical
// reports whether the parallel run produced bit-identical output — the
// runtime's core contract, gated unconditionally by CompareKernels.
type KernelResult struct {
	Name       string  `json:"name"`
	Size       int     `json:"size"`
	SerialNs   int64   `json:"serial_ns"`
	ParallelNs int64   `json:"parallel_ns"`
	SpeedupX   float64 `json:"speedup_x"`
	Identical  bool    `json:"identical"`
}

// KernelsReport is the schema-versioned content of BENCH_kernels.json.
type KernelsReport struct {
	SchemaVersion int    `json:"schema_version"`
	Kind          string `json:"kind"`
	// Cores is the host's logical CPU count. Speedups are only comparable
	// between reports from equal-core hosts; the Identical flags are
	// host-independent and always gated.
	Cores   int            `json:"cores"`
	Workers int            `json:"workers"`
	Shift   int            `json:"shift"`
	Reps    int            `json:"reps"`
	Kernels []KernelResult `json:"kernels"`
	// FieldArith holds the serial ALU-floor microkernel timings (unrolled
	// Montgomery arithmetic, dedicated mixed add, batch-affine Pippenger)
	// against the retained generic references (fieldarith.go).
	FieldArith []FieldArithResult `json:"field_arith"`
}

// KernelsReportFileName is the on-disk name of the kernels report.
func KernelsReportFileName() string { return "BENCH_kernels.json" }

// kernelCase is one measurable kernel: run executes it at the current
// runtime width and returns a digest fingerprinting the full output.
type kernelCase struct {
	name string
	size int
	run  func() (sha2.Digest, error)
}

// elementsFP fingerprints a vector of field elements.
func elementsFP(es []field.Element) sha2.Digest {
	return merkle.HashElements(es)
}

// kernelCases assembles the kernel suite at 2^shift problem sizes. All
// inputs are drawn deterministically from seed so serial and parallel
// runs (and reruns on other hosts) see identical data.
func kernelCases(shift int, seed int64) ([]kernelCase, error) {
	if shift < 6 || shift > ntt.MaxLogSize {
		return nil, fmt.Errorf("bench: kernel shift %d out of [6, %d]", shift, ntt.MaxLogSize)
	}
	rng := rand.New(rand.NewSource(seed))
	randVec := func(n int) []field.Element {
		out := make([]field.Element, n)
		for i := range out {
			var b [64]byte
			rng.Read(b[:])
			out[i].SetBytesWide(b[:])
		}
		return out
	}
	n := 1 << shift

	blocks := make([]merkle.Block, n)
	for i := range blocks {
		rng.Read(blocks[i][:])
	}

	encMsg := randVec(n)
	enc, err := encoder.New(n, encoder.DefaultParams())
	if err != nil {
		return nil, err
	}

	scTable := randVec(n)
	nttVec := randVec(n)
	invVec := randVec(n)

	pcsParams := pcs.NewParams(shift)
	pcsParams.NumOpenings = 16
	pcsVals := randVec(n)
	// Drawn last so the other kernels' inputs stay as they were.
	scB, scC := randVec(n), randVec(n)
	var scClaim, t field.Element
	for i := range scTable {
		t.Mul(&scTable[i], &scB[i])
		scClaim.Add(&scClaim, &t)
		scClaim.Add(&scClaim, &scC[i])
	}
	// sumcheckCase runs one sum-check instance over fresh multilinears of
	// the first k tables and fingerprints its round messages.
	sumcheckCase := func(name string, k int, prove func(ms []*poly.Multilinear) (*sumcheck.Proof, error)) kernelCase {
		return kernelCase{name: name, size: n, run: func() (sha2.Digest, error) {
			ms := make([]*poly.Multilinear, k)
			for j, tb := range [][]field.Element{scTable, scB, scC}[:k] {
				m, err := poly.NewMultilinear(tb)
				if err != nil {
					return sha2.Digest{}, err
				}
				ms[j] = m
			}
			proof, err := prove(ms)
			if err != nil {
				return sha2.Digest{}, err
			}
			var flat []field.Element
			for _, rd := range proof.Rounds {
				flat = append(flat, rd.Evals...)
			}
			return elementsFP(flat), nil
		}}
	}

	return []kernelCase{
		{name: "merkle/build", size: n, run: func() (sha2.Digest, error) {
			t, err := merkle.Build(blocks)
			if err != nil {
				return sha2.Digest{}, err
			}
			return t.Root(), nil
		}},
		{name: "encoder/encode", size: n, run: func() (sha2.Digest, error) {
			cw, err := enc.Encode(encMsg)
			if err != nil {
				return sha2.Digest{}, err
			}
			return elementsFP(cw), nil
		}},
		sumcheckCase("sumcheck/prove", 1, func(ms []*poly.Multilinear) (*sumcheck.Proof, error) {
			proof, _, _ := sumcheck.Prove(ms[0], transcript.New("bench/kernels"))
			return proof, nil
		}),
		sumcheckCase("sumcheck/product", 2, func(ms []*poly.Multilinear) (*sumcheck.Proof, error) {
			proof, _, _, _, err := sumcheck.ProveProduct(ms[0], ms[1], transcript.New("bench/kernels"))
			return proof, err
		}),
		sumcheckCase("sumcheck/affine", 3, func(ms []*poly.Multilinear) (*sumcheck.Proof, error) {
			proof, _, _, err := sumcheck.ProveAffineProduct(ms[0], ms[1], ms[2], scClaim, transcript.New("bench/kernels"))
			return proof, err
		}),
		sumcheckCase("sumcheck/triple", 3, func(ms []*poly.Multilinear) (*sumcheck.Proof, error) {
			proof, _, _, _, err := sumcheck.ProveTriple(ms[0], ms[1], ms[2], transcript.New("bench/kernels"))
			return proof, err
		}),
		{name: "ntt/forward", size: n, run: func() (sha2.Digest, error) {
			a := append([]field.Element(nil), nttVec...)
			if err := ntt.Forward(a); err != nil {
				return sha2.Digest{}, err
			}
			return elementsFP(a), nil
		}},
		{name: "pcs/commit", size: n, run: func() (sha2.Digest, error) {
			s, err := pcs.Commit(pcsVals, pcsParams)
			if err != nil {
				return sha2.Digest{}, err
			}
			return s.Commitment().Root, nil
		}},
		{name: "field/batch-inverse", size: n, run: func() (sha2.Digest, error) {
			s := par.GetScratch()
			defer par.PutScratch(s)
			dst := make([]field.Element, len(invVec))
			s.BatchInverse(dst, invVec)
			return elementsFP(dst), nil
		}},
	}, nil
}

// BuildKernelsReport measures every kernel serial (width 1) and parallel
// (the given worker count; ≤ 0 selects the GOMAXPROCS default), taking
// the best of reps runs, and checks the outputs are bit-identical. The
// global runtime width is restored to the default on return.
func BuildKernelsReport(shift, reps, workers int, seed int64) (*KernelsReport, error) {
	if reps < 1 {
		reps = 1
	}
	cases, err := kernelCases(shift, seed)
	if err != nil {
		return nil, err
	}
	defer par.SetWidth(0)

	measure := func(k kernelCase) (best int64, fp sha2.Digest, err error) {
		for r := 0; r < reps; r++ {
			start := time.Now()
			d, err := k.run()
			elapsed := time.Since(start).Nanoseconds()
			if err != nil {
				return 0, sha2.Digest{}, fmt.Errorf("bench: kernel %s: %w", k.name, err)
			}
			if r == 0 {
				fp = d
			} else if d != fp {
				return 0, sha2.Digest{}, fmt.Errorf("bench: kernel %s: nondeterministic across reps", k.name)
			}
			if r == 0 || elapsed < best {
				best = elapsed
			}
		}
		return best, fp, nil
	}

	rep := &KernelsReport{
		SchemaVersion: KernelsSchemaVersion,
		Kind:          KernelsReportKind,
		Cores:         runtime.NumCPU(),
		Workers:       workers,
		Shift:         shift,
		Reps:          reps,
	}
	if rep.Workers <= 0 {
		rep.Workers = runtime.GOMAXPROCS(0)
	}
	for _, k := range cases {
		par.SetWidth(1)
		serialNs, serialFP, err := measure(k)
		if err != nil {
			return nil, err
		}
		par.SetWidth(workers)
		parNs, parFP, err := measure(k)
		if err != nil {
			return nil, err
		}
		res := KernelResult{
			Name:       k.name,
			Size:       k.size,
			SerialNs:   serialNs,
			ParallelNs: parNs,
			Identical:  serialFP == parFP,
		}
		if parNs > 0 {
			res.SpeedupX = float64(serialNs) / float64(parNs)
		}
		rep.Kernels = append(rep.Kernels, res)
	}
	// The field-arith chains are serial scalar code; pin width 1 anyway so
	// nothing parallel runs underneath the timings.
	par.SetWidth(1)
	fa, err := buildFieldArithSection(reps)
	if err != nil {
		return nil, err
	}
	rep.FieldArith = fa
	return rep, nil
}

// WriteJSON serializes the report, indented, trailing newline included.
func (r *KernelsReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadKernelsReport parses a BENCH_kernels.json stream and validates its
// schema and kind.
func ReadKernelsReport(rd io.Reader) (*KernelsReport, error) {
	var r KernelsReport
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("bench: parse kernels report: %w", err)
	}
	if r.Kind != KernelsReportKind {
		return nil, fmt.Errorf("bench: report kind %q, want %q", r.Kind, KernelsReportKind)
	}
	if r.SchemaVersion != KernelsSchemaVersion {
		return nil, fmt.Errorf("bench: kernels report schema v%d, this build reads v%d", r.SchemaVersion, KernelsSchemaVersion)
	}
	return &r, nil
}

// CompareKernels gates a new kernels report against an old one. The
// bit-identity flags are host-independent and always gated: a kernel that
// was Identical and no longer is fails at any threshold. Speedups are
// hardware-dependent, so per-kernel speedup regressions are gated only
// when both reports come from hosts with the same core count — and only
// on multi-core hosts, since a single core offers no parallelism to
// protect and its serial/parallel ratio is pure timing noise.
func CompareKernels(old, cur *KernelsReport, threshold float64) ([]Regression, error) {
	if old == nil || cur == nil {
		return nil, fmt.Errorf("bench: compare needs two reports")
	}
	if threshold < 0 {
		return nil, fmt.Errorf("bench: negative threshold %v", threshold)
	}
	oldByName := make(map[string]KernelResult, len(old.Kernels))
	for _, k := range old.Kernels {
		oldByName[k.Name] = k
	}
	var regs []Regression
	sameHost := old.Cores == cur.Cores && old.Cores > 1
	for _, k := range cur.Kernels {
		o, ok := oldByName[k.Name]
		if !ok {
			continue // new kernel: nothing to regress against
		}
		if o.Identical && !k.Identical {
			regs = append(regs, Regression{
				Metric: k.Name + ".identical", Old: 1, New: 0, DeltaFrac: 1,
			})
		}
		if sameHost && o.SpeedupX > 0 {
			delta := (o.SpeedupX - k.SpeedupX) / o.SpeedupX
			if delta > threshold {
				regs = append(regs, Regression{
					Metric: k.Name + ".speedup_x", Old: o.SpeedupX, New: k.SpeedupX, DeltaFrac: delta,
				})
			}
		}
	}
	for _, o := range old.Kernels {
		found := false
		for _, k := range cur.Kernels {
			if k.Name == o.Name {
				found = true
				break
			}
		}
		if !found {
			regs = append(regs, Regression{Metric: o.Name + ".present", Old: 1, New: 0, DeltaFrac: 1})
		}
	}

	// Field-arith section: same gating discipline — equivalence and
	// presence are host-independent and unconditional, the ref-vs-new
	// speedup only comparable between equal-core hosts.
	oldFA := make(map[string]FieldArithResult, len(old.FieldArith))
	for _, f := range old.FieldArith {
		oldFA[f.Name] = f
	}
	for _, f := range cur.FieldArith {
		o, ok := oldFA[f.Name]
		if !ok {
			continue
		}
		if o.Identical && !f.Identical {
			regs = append(regs, Regression{
				Metric: "field-arith/" + f.Name + ".identical", Old: 1, New: 0, DeltaFrac: 1,
			})
		}
		if sameHost && o.SpeedupX > 0 {
			delta := (o.SpeedupX - f.SpeedupX) / o.SpeedupX
			if delta > threshold {
				regs = append(regs, Regression{
					Metric: "field-arith/" + f.Name + ".speedup_x", Old: o.SpeedupX, New: f.SpeedupX, DeltaFrac: delta,
				})
			}
		}
	}
	curFA := make(map[string]bool, len(cur.FieldArith))
	for _, f := range cur.FieldArith {
		curFA[f.Name] = true
	}
	for _, o := range old.FieldArith {
		if !curFA[o.Name] {
			regs = append(regs, Regression{Metric: "field-arith/" + o.Name + ".present", Old: 1, New: 0, DeltaFrac: 1})
		}
	}
	return regs, nil
}
