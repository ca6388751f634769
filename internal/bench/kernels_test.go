package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestKernelsReportSumcheckDegreeSweep checks that the report times the
// sum-check kernel at every instance degree, and that each instance's
// parallel proof is bit-identical to its serial one. 2^12 is the
// smallest size whose first round splits into chunks at width 2.
func TestKernelsReportSumcheckDegreeSweep(t *testing.T) {
	rep, err := BuildKernelsReport(12, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, k := range rep.Kernels {
		if !strings.HasPrefix(k.Name, "sumcheck/") {
			continue
		}
		seen[k.Name] = true
		if !k.Identical {
			t.Errorf("%s: parallel proof differs from serial", k.Name)
		}
	}
	for _, name := range []string{"sumcheck/prove", "sumcheck/product", "sumcheck/affine", "sumcheck/triple"} {
		if !seen[name] {
			t.Errorf("%s missing from the kernels report", name)
		}
	}
}

func TestKernelsReportBuildAndRoundTrip(t *testing.T) {
	rep, err := BuildKernelsReport(6, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != KernelsReportKind || rep.SchemaVersion != KernelsSchemaVersion {
		t.Fatalf("bad header: kind=%q v%d", rep.Kind, rep.SchemaVersion)
	}
	if len(rep.Kernels) != 9 {
		t.Fatalf("%d kernels measured, want 9", len(rep.Kernels))
	}
	for _, k := range rep.Kernels {
		if !k.Identical {
			t.Fatalf("kernel %s: parallel output differs from serial", k.Name)
		}
		if k.SerialNs <= 0 || k.ParallelNs <= 0 {
			t.Fatalf("kernel %s: non-positive timing", k.Name)
		}
	}
	if len(rep.FieldArith) != 7 {
		t.Fatalf("%d field-arith kernels measured, want 7", len(rep.FieldArith))
	}
	for _, f := range rep.FieldArith {
		if !f.Identical {
			t.Fatalf("field-arith %s: optimized path diverges from reference", f.Name)
		}
		if f.RefNsOp <= 0 || f.NewNsOp <= 0 || f.Ops <= 0 {
			t.Fatalf("field-arith %s: non-positive measurement: %+v", f.Name, f)
		}
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadKernelsReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shift != rep.Shift || len(got.Kernels) != len(rep.Kernels) {
		t.Fatal("round trip lost fields")
	}
	if len(got.FieldArith) != len(rep.FieldArith) {
		t.Fatal("round trip lost the field-arith section")
	}
}

func TestKernelsReportRejectsOldSchema(t *testing.T) {
	_, err := ReadKernelsReport(strings.NewReader(`{"schema_version":1,"kind":"kernels"}`))
	if err == nil {
		t.Fatal("schema v1 accepted by a v2 reader")
	}
}

func TestKernelsReportRejectsWrongKind(t *testing.T) {
	_, err := ReadKernelsReport(strings.NewReader(`{"schema_version":1,"kind":"scheduler"}`))
	if err == nil {
		t.Fatal("wrong kind accepted")
	}
}

func TestCompareKernelsGates(t *testing.T) {
	old := &KernelsReport{
		SchemaVersion: KernelsSchemaVersion, Kind: KernelsReportKind, Cores: 4,
		Kernels: []KernelResult{
			{Name: "a", SpeedupX: 2.0, Identical: true},
			{Name: "b", SpeedupX: 3.0, Identical: true},
		},
	}
	// Identity break is gated regardless of cores.
	cur := &KernelsReport{
		SchemaVersion: KernelsSchemaVersion, Kind: KernelsReportKind, Cores: 8,
		Kernels: []KernelResult{
			{Name: "a", SpeedupX: 0.5, Identical: false},
			{Name: "b", SpeedupX: 0.5, Identical: true},
		},
	}
	regs, err := CompareKernels(old, cur, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "a.identical" {
		t.Fatalf("cross-core compare gated %v, want only a.identical", regs)
	}
	// Same cores: the speedup collapse is also gated.
	cur.Cores = 4
	regs, err = CompareKernels(old, cur, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 3 {
		t.Fatalf("same-core compare found %d regressions, want 3 (identity + 2 speedups)", len(regs))
	}
	// A dropped kernel is a regression.
	cur.Kernels = cur.Kernels[:1]
	cur.Kernels[0].Identical = true
	cur.Kernels[0].SpeedupX = 2.0
	regs, err = CompareKernels(old, cur, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range regs {
		if r.Metric == "b.present" {
			found = true
		}
	}
	if !found {
		t.Fatalf("dropped kernel not gated: %v", regs)
	}
}

func TestCompareKernelsGatesFieldArith(t *testing.T) {
	old := &KernelsReport{
		SchemaVersion: KernelsSchemaVersion, Kind: KernelsReportKind, Cores: 4,
		FieldArith: []FieldArithResult{
			{Name: "field/mul", SpeedupX: 1.6, Identical: true},
			{Name: "fp/mul", SpeedupX: 1.5, Identical: true},
		},
	}
	// Cross-core: only the equivalence break is gated.
	cur := &KernelsReport{
		SchemaVersion: KernelsSchemaVersion, Kind: KernelsReportKind, Cores: 8,
		FieldArith: []FieldArithResult{
			{Name: "field/mul", SpeedupX: 0.9, Identical: false},
			{Name: "fp/mul", SpeedupX: 0.9, Identical: true},
		},
	}
	regs, err := CompareKernels(old, cur, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "field-arith/field/mul.identical" {
		t.Fatalf("cross-core compare gated %v, want only the identical break", regs)
	}
	// Same cores: the speedup collapses are gated too.
	cur.Cores = 4
	regs, err = CompareKernels(old, cur, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 3 {
		t.Fatalf("same-core compare found %d regressions, want 3 (identity + 2 speedups)", len(regs))
	}
	// A dropped microkernel is a regression.
	cur.FieldArith = cur.FieldArith[:1]
	regs, err = CompareKernels(old, cur, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range regs {
		if r.Metric == "field-arith/fp/mul.present" {
			found = true
		}
	}
	if !found {
		t.Fatalf("dropped field-arith kernel not gated: %v", regs)
	}
}
