package core

import (
	"fmt"
	"math/bits"
	"strings"

	"batchzk/internal/encoder"
	"batchzk/internal/gpusim"
	"batchzk/internal/pcs"
	"batchzk/internal/perfmodel"
	"batchzk/internal/pipeline"
)

// SystemShape fixes the derived sizes of one proof at circuit scale S
// (the paper's S = number of multiplication gates).
type SystemShape struct {
	Scale    int // S
	NumGates int // padded gate count m (hypercube of the Hadamard check)
	NumWires int // padded wire-vector length N_w (the committed vector)
	Rows     int // PCS matrix rows
	Cols     int // PCS matrix columns (per-row message length)
	CwLen    int // per-row codeword length (RateInv · Cols)
	GateVars int
	WireVars int
}

// ShapeForScale derives the proof shape for a power-of-two scale S. A
// compiled circuit with S multiplication gates carries ≈S/4 interleaved
// additions plus inputs and constants, so both the padded gate count and
// the padded wire count land at 2S.
func ShapeForScale(S int) (SystemShape, error) {
	if S < 16 || S&(S-1) != 0 {
		return SystemShape{}, fmt.Errorf("core: scale %d must be a power of two ≥ 16", S)
	}
	nw := 2 * S
	ng := 2 * S
	p := pcs.NewParams(bits.TrailingZeros(uint(nw)))
	return SystemShape{
		Scale:    S,
		NumGates: ng,
		NumWires: nw,
		Rows:     p.NumRows,
		Cols:     p.NumCols,
		CwLen:    encoder.RateInv * p.NumCols,
		GateVars: bits.TrailingZeros(uint(ng)),
		WireVars: bits.TrailingZeros(uint(nw)),
	}, nil
}

// SystemStages composes the full per-proof stage list of the paper's
// Figure 7 pipeline: linear-time encoders over every matrix row, Merkle
// hashing of the encoded columns plus the tree above them, the
// gate-consistency (degree-3) sum-check, the batched linear (degree-2)
// sum-check, and the commitment-opening row combinations. Stage names are
// prefixed encoder/, merkle/, sumcheck/ so reports can aggregate per
// module family.
func SystemStages(shape SystemShape, costs perfmodel.OpCosts, encP encoder.Params) ([]gpusim.Stage, error) {
	enc, err := encoder.Cached(shape.Cols, encP)
	if err != nil {
		return nil, err
	}
	var stages []gpusim.Stage

	// Encoder: each of the Rows rows is encoded; one pipeline stage per
	// recursion level, with all rows of one proof flowing together.
	encStages := pipeline.EncoderStages(enc, costs, true)
	rows := float64(shape.Rows)
	for i := range encStages {
		st := encStages[i]
		st.WorkOps *= rows
		st.ParallelOps *= rows
		st.MemBytes *= rows
		st.HostBytesIn *= rows // witness rows stream in (dynamic loading)
		st.HostBytesOut = 0    // codewords stay on device for hashing
		stages = append(stages, st)
	}

	// Merkle: hash every encoded column (Rows elements → Rows/2
	// compressions each), then the binary tree over CwLen leaves.
	leafCompressions := float64(shape.CwLen) * float64(maxI(shape.Rows/2, 1))
	stages = append(stages, gpusim.Stage{
		Name:        "merkle/columns",
		WorkOps:     leafCompressions,
		CyclesPerOp: costs.HashCycles,
		MemBytes:    float64(shape.CwLen*shape.Rows) * perfmodel.FieldBytes,
	})
	for sz := shape.CwLen / 2; sz >= 1; sz /= 2 {
		stages = append(stages, gpusim.Stage{
			Name:        "merkle/layer",
			WorkOps:     float64(sz),
			CyclesPerOp: costs.HashCycles,
			MemBytes:    float64(sz) * 3 * perfmodel.HashDigestBytes,
		})
	}

	// Sum-check A: the degree-3 gate-consistency rounds. Per table pair:
	// the round polynomial is evaluated at 4 points (3 lerps + 2 muls
	// each) and the three tables fold (3 lerps) ≈ 23 muls + 46 adds.
	// sumcheckLoad folds in the additional sum-check instances a
	// production protocol of this family runs over the wiring predicates
	// (Orion's GKR layers); calibrated against Table 7's sum-check
	// breakdown at S = 2^18.
	const sumcheckLoad = 2.5
	tripleCycles := sumcheckLoad * (23*costs.FieldMulCycles + 46*costs.FieldAddCycles)
	for i := 0; i < shape.GateVars; i++ {
		in := 1 << (shape.GateVars - i)
		st := gpusim.Stage{
			Name:        "sumcheck/gate-round",
			WorkOps:     float64(in / 2),
			CyclesPerOp: tripleCycles,
			MemBytes:    sumcheckLoad * float64(3*(in+in/2)) * perfmodel.FieldBytes * 2,
		}
		if i == 0 {
			// The L, R, O tables are interpolated from intermediate
			// results held in host memory (§4) and stream in per cycle.
			st.HostBytesIn = float64(3*in) * perfmodel.FieldBytes
		}
		stages = append(stages, st)
	}
	// Sum-check B: the degree-2 linear-check rounds over the wire vector,
	// preceded by building the public combination vector V.
	stages = append(stages, gpusim.Stage{
		Name:        "sumcheck/combine-v",
		WorkOps:     float64(shape.NumWires),
		CyclesPerOp: costs.FieldMulCycles + costs.FieldAddCycles,
		MemBytes:    float64(shape.NumWires) * perfmodel.FieldBytes * 2,
	})
	prodCycles := sumcheckLoad * (11*costs.FieldMulCycles + 22*costs.FieldAddCycles)
	for i := 0; i < shape.WireVars; i++ {
		in := 1 << (shape.WireVars - i)
		st := gpusim.Stage{
			Name:        "sumcheck/linear-round",
			WorkOps:     float64(in / 2),
			CyclesPerOp: prodCycles,
			MemBytes:    sumcheckLoad * float64(2*(in+in/2)) * perfmodel.FieldBytes * 2,
		}
		if i == 0 {
			st.HostBytesIn = float64(in) * perfmodel.FieldBytes
		}
		stages = append(stages, st)
	}
	// Opening: the two committed-row combinations γᵀM and eqᵀM.
	stages = append(stages, gpusim.Stage{
		Name:        "sumcheck/open-rows",
		WorkOps:     float64(2 * shape.NumWires),
		CyclesPerOp: costs.FieldMulCycles + costs.FieldAddCycles,
		MemBytes:    float64(2*shape.NumWires) * perfmodel.FieldBytes,
		// The assembled proof (about 1 MiB at 2^20 gates) returns to the host.
		HostBytesOut: proofBytes(shape),
	})
	return stages, nil
}

// proofBytes estimates the serialized proof size: the commitment
// opening, bounded by the size model pcs.NewParams minimizes, dominates;
// the sum-check rounds add a few KiB.
func proofBytes(shape SystemShape) float64 {
	opening := float64(pcs.MaxOpeningBytes(shape.Rows, shape.Cols, pcs.DefaultNumOpenings))
	sumchecks := float64(4*shape.GateVars+3*shape.WireVars) * perfmodel.FieldBytes
	return opening + sumchecks
}

// SystemTaskBytes is the device-memory footprint of the pipeline under
// the dynamic loading/storing discipline of §4:
//
//   - the message rows being encoded (the encoded matrix itself streams
//     back to host after column hashing; openings are recomputed from the
//     host copy);
//   - the Merkle layers in flight;
//   - the sum-check double buffers: the L and R tables of the gate check
//     (the eq table is tensor-structured and generated on the fly) and
//     the W table of the linear check (V is publicly derivable), each
//     slot ping-ponged per Figure 5, with slot sizes decaying
//     geometrically (Σ slots ≈ 2× the first).
func SystemTaskBytes(shape SystemShape) int64 {
	bytes := int64(shape.NumWires) * perfmodel.FieldBytes                 // message rows
	bytes += 2 * int64(shape.CwLen) * perfmodel.HashDigestBytes           // tree layers
	bytes += 2 * 2 * int64(2*2*shape.NumGates) * perfmodel.FieldBytes / 2 // gate L,R double buffers
	bytes += 2 * 2 * int64(2*shape.NumWires) * perfmodel.FieldBytes / 2   // linear W double buffers
	return bytes
}

// SystemReport extends the simulator report with the per-module breakdown
// of Table 7 and the paper's thread-allocation ratio (§4).
type SystemReport struct {
	gpusim.Report
	Shape SystemShape
	// Amortized per-proof time attributed to each module family (ns).
	EncoderNs  float64
	MerkleNs   float64
	SumcheckNs float64
	// ThreadAllocation maps module family → threads, computed from the
	// work proportions the way the paper derives 2240/768/7296 on V100.
	ThreadAllocation map[string]int
}

// SimulateSystem models batch proof generation at scale S on a device.
func SimulateSystem(spec gpusim.DeviceSpec, costs perfmodel.OpCosts, S, batch int, overlap bool) (*SystemReport, error) {
	shape, err := ShapeForScale(S)
	if err != nil {
		return nil, err
	}
	stages, err := SystemStages(shape, costs, encoder.DefaultParams())
	if err != nil {
		return nil, err
	}
	rep, err := gpusim.RunPipelined(spec, stages, batch, gpusim.Options{
		Overlap:   overlap,
		TaskBytes: SystemTaskBytes(shape),
	})
	if err != nil {
		return nil, err
	}
	out := &SystemReport{Report: *rep, Shape: shape, ThreadAllocation: map[string]int{}}

	// Work-proportional attribution of the amortized cycle, and the
	// matching thread allocation.
	famCycles := map[string]float64{}
	total := 0.0
	for i := range stages {
		fam := strings.SplitN(stages[i].Name, "/", 2)[0]
		w := stages[i].WorkOps * stages[i].CyclesPerOp
		famCycles[fam] += w
		total += w
	}
	for fam, w := range famCycles {
		share := w / total
		out.ThreadAllocation[fam] = int(share * float64(spec.Cores))
		ns := share * rep.CycleNs
		switch fam {
		case "encoder":
			out.EncoderNs = ns
		case "merkle":
			out.MerkleNs = ns
		case "sumcheck":
			out.SumcheckNs = ns
		}
	}
	return out, nil
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ShardedSystemReport summarizes a sharded simulation: one batch split
// across S simulated devices with per-device memory budgets.
type ShardedSystemReport struct {
	Shape  SystemShape
	Shards int
	Batch  int
	// PerShard holds each simulated device's pipeline report, in the
	// deterministic scatter order (device i proves jobs i, i+S, …).
	PerShard []*gpusim.Report
	// TotalNs is the batch wall time (the slowest device).
	TotalNs float64
	// ThroughputPerMs is aggregate proofs per millisecond.
	ThroughputPerMs float64
	// PeakDeviceBytes is the largest per-device memory high-water mark.
	PeakDeviceBytes int64
}

// SimulateSystemSharded models batch proof generation at scale S with the
// batch split across shards simulated devices — the system-model twin of
// core.ShardedProver. deviceMemBytes, when positive, overrides each
// device's memory budget (so a budget too small for the dynamic-loading
// working set surfaces as gpusim.ErrOutOfMemory, per device).
func SimulateSystemSharded(spec gpusim.DeviceSpec, costs perfmodel.OpCosts, S, batch, shards int, overlap bool, deviceMemBytes int64) (*ShardedSystemReport, error) {
	shape, err := ShapeForScale(S)
	if err != nil {
		return nil, err
	}
	stages, err := SystemStages(shape, costs, encoder.DefaultParams())
	if err != nil {
		return nil, err
	}
	if deviceMemBytes > 0 {
		spec.DeviceMemBytes = deviceMemBytes
	}
	rep, err := gpusim.RunSharded(spec, stages, batch, shards, gpusim.Options{
		Overlap:   overlap,
		TaskBytes: SystemTaskBytes(shape),
	})
	if err != nil {
		return nil, err
	}
	return &ShardedSystemReport{
		Shape:           shape,
		Shards:          shards,
		Batch:           batch,
		PerShard:        rep.PerShard,
		TotalNs:         rep.TotalNs,
		ThroughputPerMs: rep.ThroughputPerMs(),
		PeakDeviceBytes: rep.PeakDeviceBytes,
	}, nil
}

// MultiGPUReport summarizes a multi-device deployment.
type MultiGPUReport struct {
	PerDevice       *SystemReport
	NumDevices      int
	ThroughputPerMs float64
	// HostBound reports whether aggregate host↔device traffic exceeded
	// the host-memory bandwidth, capping the scaling.
	HostBound bool
}

// SimulateMultiGPU models batch proving across several identical devices,
// each running an independent pipeline fed from shared host memory — the
// natural scale-out of the paper's design (proof jobs are independent).
// Scaling is linear until the aggregate per-cycle transfer demand exceeds
// hostMemGBs, the host-memory bandwidth all device links draw from.
func SimulateMultiGPU(spec gpusim.DeviceSpec, numDevices int, costs perfmodel.OpCosts, S, batchPerDevice int, hostMemGBs float64) (*MultiGPUReport, error) {
	if numDevices < 1 {
		return nil, fmt.Errorf("core: need at least one device")
	}
	if hostMemGBs <= 0 {
		return nil, fmt.Errorf("core: host bandwidth must be positive")
	}
	per, err := SimulateSystem(spec, costs, S, batchPerDevice, true)
	if err != nil {
		return nil, err
	}
	rep := &MultiGPUReport{PerDevice: per, NumDevices: numDevices}

	// Aggregate host traffic: each device moves TransferNsPerTask·link
	// bytes per cycle; K devices demand K× that from host memory.
	perDeviceBytesPerCycle := per.TransferNsPerTask * spec.LinkGBs
	demand := float64(numDevices) * perDeviceBytesPerCycle / per.CycleNs // bytes/ns
	linear := float64(numDevices) * per.ThroughputPerMs()
	if demand > hostMemGBs {
		// Host-bound: throughput capped by how many proofs' worth of
		// transfers the host can serve per unit time (never above the
		// devices' own aggregate capability).
		rep.HostBound = true
		capped := hostMemGBs / perDeviceBytesPerCycle * 1e6
		if capped > linear {
			capped = linear
		}
		rep.ThroughputPerMs = capped
		return rep, nil
	}
	rep.ThroughputPerMs = linear
	return rep, nil
}
