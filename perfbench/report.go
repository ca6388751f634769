package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"batchzk/internal/core"
	"batchzk/internal/par"
	"batchzk/internal/service"
	"batchzk/internal/telemetry"
)

// metric is one measured value with the number of samples behind it.
type metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
	// NA marks a per-layer metric the workload does not exercise; it is
	// printed as 0.
	NA bool `json:"na,omitempty"`
}

// report collects one run's metrics and its correctness verdict.
type report struct {
	workload  string
	metrics   map[string]metric
	order     []string
	attempted int
	failed    int
	// problems lists every rejected, failed, refused or lost job.
	problems  []string
	selfTimes []selfTime
}

func newReport(workload string) *report {
	return &report{workload: workload, metrics: make(map[string]metric)}
}

func (r *report) add(name, unit string, v float64, samples int) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Name: name, Unit: unit, Value: v, Samples: samples}
}

// reject records one job that failed, was refused or lost, or whose
// proof did not verify.
func (r *report) reject(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]valueWithUnit `json:"metrics"`
}

type valueWithUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish builds the result line from the metrics the spec names. An
// end-to-end metric the workload did not produce is a bug (strict); a
// per-layer metric of a layer the workload does not use reads 0.
func (r *report) finish(names []specMetric, strict bool) (*result, error) {
	res := &result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]valueWithUnit, len(names)),
	}
	for _, n := range names {
		m, ok := r.metrics[n.Name]
		if !ok {
			if strict {
				return nil, fmt.Errorf("workload %s produced no %s", r.workload, n.Name)
			}
			r.order = append(r.order, n.Name)
			m = metric{Name: n.Name, Unit: n.Unit, NA: true}
			r.metrics[n.Name] = m
		}
		if m.Unit != n.Unit {
			return nil, fmt.Errorf("%s measured in %s, spec says %s", n.Name, m.Unit, n.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("%s is %v", n.Name, m.Value)
		}
		res.Metrics[n.Name] = valueWithUnit{Value: m.Value, Unit: m.Unit}
	}
	return res, nil
}

// print writes every metric by name with unit and sample count: the spec
// metrics first, in spec order, then the run's other figures.
func (r *report) print(w io.Writer, names []specMetric) {
	listed := make(map[string]bool)
	for _, n := range names {
		listed[n.Name] = true
		printMetric(w, "metric", r.metrics[n.Name])
	}
	for _, name := range r.order {
		if !listed[name] {
			printMetric(w, "extra ", r.metrics[name])
		}
	}
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "extra  error_rate = %.6g fraction (failed %d of %d attempted)\n", errRate, r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintf(w, "rejected: %s\n", p)
	}
}

func printMetric(w io.Writer, tag string, m metric) {
	if m.NA {
		fmt.Fprintf(w, "%s %s = 0 %s (n/a: layer not exercised by this workload)\n", tag, m.Name, m.Unit)
		return
	}
	fmt.Fprintf(w, "%s %s = %.6g %s (n=%d)\n", tag, m.Name, m.Value, m.Unit, m.Samples)
}

// writeFile stores the full result with the host fingerprint.
func (r *report) writeFile(path string, fp fingerprint, o options) error {
	var ms []metric
	for _, name := range r.order {
		ms = append(ms, r.metrics[name])
	}
	doc := struct {
		Workload    string      `json:"workload"`
		Seconds     float64     `json:"seconds"`
		Trace       bool        `json:"trace"`
		Fingerprint fingerprint `json:"fingerprint"`
		Attempted   int         `json:"attempted"`
		Failed      int         `json:"failed"`
		Problems    []string    `json:"problems,omitempty"`
		Metrics     []metric    `json:"metrics"`
		SelfTimes   []selfTime  `json:"self_times,omitempty"`
	}{r.workload, o.seconds, o.trace, fp, r.attempted, r.failed, r.problems, ms, r.selfTimes}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// fingerprint identifies the host; absolute timings compare only between
// equal fingerprints.
type fingerprint struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Seed       int64  `json:"seed"`
}

func hostFingerprint(seed int64) fingerprint {
	return fingerprint{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Seed:       seed,
	}
}

// cpuModel reads the CPU model from the kernel's cpuinfo, "unknown"
// where there is none.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// infLatency stands for the latency of a job that failed, was refused or
// was lost: it misses every limit.
const infLatency = int64(math.MaxInt64)

// infLatencyMs is how a percentile that lands on such a job is reported.
const infLatencyMs = 1e9

// percentileMs returns the exact nearest-rank p-quantile of latencies in
// milliseconds, through the service package's helper.
func percentileMs(latNs []int64, p float64) float64 {
	v := (&service.LoadResult{LatenciesNs: latNs}).Percentile(p)
	if v == infLatency {
		return infLatencyMs
	}
	return float64(v) / 1e6
}

// windowSlices is how many runs of consecutive jobs (or emissions) a
// window's throughput, latency and SLO figures are
// computed over. Each reported figure is the median of its slices, so a
// host stall confined to one or two slices does not move it.
const windowSlices = 5

// sliceMedian splits n ordered items into windowSlices consecutive runs
// [lo, hi), applies f to each non-empty run and returns the median.
func sliceMedian(n int, f func(lo, hi int) float64) float64 {
	var vs []float64
	for s := 0; s < windowSlices; s++ {
		if lo, hi := s*n/windowSlices, (s+1)*n/windowSlices; hi > lo {
			vs = append(vs, f(lo, hi))
		}
	}
	return median(vs)
}

// sliceRate returns events per second over the event times ts, as the
// median over slices of consecutive events; 0 with fewer than two.
func sliceRate(ts []time.Time) float64 {
	if len(ts) < 2 {
		return 0
	}
	s := append([]time.Time(nil), ts...)
	sort.Slice(s, func(a, b int) bool { return s[a].Before(s[b]) })
	// Slices share their boundary events: n-1 gaps split into runs.
	return sliceMedian(len(s)-1, func(lo, hi int) float64 {
		return float64(hi-lo) / s[hi].Sub(s[lo]).Seconds()
	})
}

// addLatencyMetrics adds the latency percentiles and SLO attainment of
// one window; latNs is in hand-over (or due) order. The p50, the p90
// and the attainment are medians over slices of consecutive jobs; the
// p99 is over all jobs.
func addLatencyMetrics(rep *report, latNs []int64, slo time.Duration) {
	n := len(latNs)
	for _, p := range []struct {
		name string
		q    float64
	}{{"latency_p50_ms", 0.50}, {"latency_p90_ms", 0.90}} {
		rep.add(p.name, "ms", sliceMedian(n, func(lo, hi int) float64 {
			return percentileMs(latNs[lo:hi], p.q)
		}), n)
	}
	rep.add("latency_p99_ms", "ms", percentileMs(latNs, 0.99), n)
	rep.add("slo_attainment", "fraction", sliceMedian(n, func(lo, hi int) float64 {
		within := 0
		for _, l := range latNs[lo:hi] {
			if l <= slo.Nanoseconds() {
				within++
			}
		}
		return float64(within) / float64(hi-lo)
	}), n)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// counters is a snapshot of the process-wide counters the per-layer
// metrics difference over a window.
type counters struct {
	at       time.Time
	cpu      time.Duration
	par      par.RuntimeStats
	allocB   uint64
	gcCycles uint64
	gcCPU    float64
	allCPU   float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readCounters() counters {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return counters{
		at:       time.Now(),
		cpu:      cpuTime(),
		par:      par.Stats(),
		allocB:   s[0].Value.Uint64(),
		gcCycles: s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		allCPU:   s[3].Value.Float64(),
	}
}

// addRuntimeMetrics adds the par.* and runtime.* per-layer metrics of the
// window between two snapshots in which proofs proofs completed.
func addRuntimeMetrics(rep *report, before, after counters, proofs int) {
	if proofs < 1 {
		return
	}
	d := after.par.Delta(before.par)
	rep.add("par.calls_per_proof", "count", float64(d.Calls)/float64(proofs), proofs)
	if d.Calls > 0 {
		rep.add("par.chunks_per_call", "count", float64(d.Chunks)/float64(d.Calls), int(d.Calls))
	}
	if d.Chunks > 0 {
		rep.add("par.inline_share", "fraction", float64(d.Inline)/float64(d.Chunks), int(d.Chunks))
	}
	rep.add("runtime.alloc_mib_per_proof", "MiB", float64(after.allocB-before.allocB)/(1<<20)/float64(proofs), proofs)
	gcs := after.gcCycles - before.gcCycles
	rep.add("runtime.gc_cycles_per_100_proofs", "count", float64(gcs)*100/float64(proofs), int(gcs))
	if cpu := after.allCPU - before.allCPU; cpu > 0 {
		rep.add("runtime.gc_cpu_frac", "fraction", (after.gcCPU-before.gcCPU)/cpu, int(gcs))
	}
}

// addCoreMetrics adds the core.* per-layer metrics from the difference
// of two BatchProver stats snapshots over a window of wall time.
func addCoreMetrics(rep *report, before, after core.Stats, wall time.Duration) {
	proofs := int(after.Completed - before.Completed)
	if proofs < 1 {
		return
	}
	var busy int64
	for i, name := range core.StageNames {
		ns := after.StageNs[i] - before.StageNs[i]
		busy += ns
		rep.add("core.busy_ms."+name, "ms", float64(ns)/1e6/float64(proofs), proofs)
	}
	rep.add("core.stage_concurrency", "ratio", float64(busy)/float64(wall.Nanoseconds()), proofs)
	rep.add("core.retries", "count", float64(after.Retries-before.Retries), proofs)
	rep.add("core.quarantined", "count", float64(after.Quarantined-before.Quarantined), proofs)
}

// addSinkMetrics adds the core.* metrics only the prover's telemetry
// sink records: the inter-stage queue wait and the in-flight peak.
func addSinkMetrics(rep *report, sink *telemetry.Sink) {
	qw := sink.Histogram("core/job/queue_wait_ns").Snapshot()
	if qw.Count == 0 {
		return
	}
	rep.add("core.queue_wait_ms_p50", "ms", qw.Quantile(0.5)/1e6, int(qw.Count))
	rep.add("core.inflight_max", "count", float64(sink.Gauge("core/jobs/in_flight").Peak()), int(qw.Count))
}

// heapSample is the live heap after one garbage collection, with the
// retained count read at the same time.
type heapSample struct{ live, retained int64 }

// heapSampler records the live heap after every garbage collection in
// a window, with how much finished jobs have left behind by then
// (retained): results that are only kept until the window ends and are
// no part of the working set.
type heapSampler struct {
	retained *atomic.Int64
	tick     func()
	stop     chan struct{}
	wg       sync.WaitGroup
	perGC    []heapSample
	ticks    int
}

// heapSampleEvery is the polling period; collections are further apart.
const heapSampleEvery = 2 * time.Millisecond

// startHeapSampler starts polling; tick, when non-nil, runs on every
// poll (the gateway samples its queue depth there).
func startHeapSampler(retained *atomic.Int64, tick func()) *heapSampler {
	h := &heapSampler{retained: retained, tick: tick, stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		last := s[0].Value.Uint64()
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
			metrics.Read(s)
			if n := s[0].Value.Uint64(); n != last {
				last = n
				h.perGC = append(h.perGC, heapSample{live: int64(s[1].Value.Uint64()), retained: retained.Load()})
			}
			h.ticks++
			if h.tick != nil {
				h.tick()
			}
		}
	}()
	return h
}

// finish stops polling and returns the per-collection samples.
func (h *heapSampler) finish() []heapSample {
	close(h.stop)
	h.wg.Wait()
	return h.perGC
}

// liveHeapAfterGC forces a collection and returns the live heap it
// leaves.
func liveHeapAfterGC() int64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// addPeakHeap adds metric name: the largest live heap over the
// collections in MiB, less perRetained bytes per retained unit.
func addPeakHeap(rep *report, name string, perGC []heapSample, perRetained float64) {
	if len(perGC) == 0 {
		return
	}
	peak := math.Inf(-1)
	for _, s := range perGC {
		peak = max(peak, float64(s.live)-perRetained*float64(s.retained))
	}
	rep.add(name, "MiB", peak/(1<<20), len(perGC))
}
