// Command perfbench is the repository's end-to-end benchmark. It drives
// the real host prover (core, protocol, pcs, encoder, merkle, sumcheck,
// gkr, service, par, field, sha2) through public functions only, measures
// host wall time, verifies every proof it produced, and prints every
// metric by name with its unit and sample count. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end_to_end list of BENCHMARK.json;
// with -trace 1 they are its per_layer list, taken from a traced run that
// adds benchmark-side spans, the prover's telemetry sink and a sequential
// probe. Run it from the repository root through the launcher:
//
//	bash perfbench/run.sh --workload r1cs-batch --seed 1 --seconds 25 --trace 0
//
// See perfbench/README.md for the workloads and metric definitions.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	// setupOnly makes the process time one set-up, print it and exit;
	// the parent runs it several times to sample cold set-up time.
	setupOnly bool
}

// workload is one benchmark input set. setup builds everything the
// measured window needs (the part timed as setup_s); the returned runner
// measures and verifies.
type workload struct {
	name  string
	setup func(o options) (runner, error)
}

type runner interface {
	// measure runs the untraced window and the correctness gate, adding
	// the end-to-end metrics to rep.
	measure(o options, rep *report) error
	// traced runs the traced window and the sequential probe, adding the
	// per-layer metrics to rep and spans to tr.
	traced(o options, rep *report, tr *tracer) error
	close()
}

var workloads = []workload{
	{name: "r1cs-batch", setup: setupR1CS},
	{name: "gateway-open", setup: setupGateway},
	{name: "gkr-batch", setup: setupGKR},
}

// setupSamples is how many cold set-ups one run times (this process's
// own plus setupSamples-1 child processes); setup_s is their median.
const setupSamples = 9

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name (r1cs-batch, gateway-open, gkr-batch)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench-results"), "directory for result files and Chrome traces")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "time one cold set-up, print it and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	var wl *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload in %s, -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}

	if o.setupOnly {
		start := time.Now()
		rn, err := wl.setup(o)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: setup: %v\n", err)
			return 1
		}
		d := time.Since(start)
		rn.close()
		fmt.Fprintf(stdout, "setup_s %.9f\n", d.Seconds())
		return 0
	}

	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fp := hostFingerprint(o.seed)
	fpJSON, _ := json.Marshal(fp)
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d\n", o.workload, o.seed, o.seconds, trace)
	fmt.Fprintf(stdout, "fingerprint %s\n", fpJSON)

	rep := newReport(o.workload)
	start := time.Now()
	rn, err := wl.setup(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: setup: %v\n", err)
		return 1
	}
	defer rn.close()
	setups := []float64{time.Since(start).Seconds()}
	for i := 1; i < setupSamples; i++ {
		s, err := childSetup(o)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: setup sample %d: %v\n", i, err)
			return 1
		}
		setups = append(setups, s)
	}
	rep.add("setup_s", "s", median(setups), len(setups))

	var tr *tracer
	if o.trace {
		tr = newTracer()
		err = rn.traced(o, rep, tr)
	} else {
		err = rn.measure(o, rep)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}

	names := spec.EndToEnd
	if o.trace {
		names = spec.PerLayer
	}
	result, err := rep.finish(names, !o.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	rep.print(stdout, names)
	base := fmt.Sprintf("%s-seed%d-trace%d", o.workload, o.seed, trace)
	if tr != nil {
		self := tr.selfTimes()
		printSelfTimes(stdout, self)
		path := filepath.Join(o.out, base+".trace.json")
		if err := tr.writeChrome(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "chrome trace written to %s\n", path)
		rep.selfTimes = self
	}
	if err := rep.writeFile(filepath.Join(o.out, base+".json"), fp, o); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, _ := json.Marshal(result)
	fmt.Fprintf(stdout, "%s\n", line)
	if !result.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// childSetup times one cold set-up in a fresh process of this binary, so
// process-wide caches (encoders, twiddle and Merkle-shape tables) are
// empty again, as they are for the first set-up.
func childSetup(o options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-setup-only", "-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("child set-up: %w", err)
	}
	f := strings.Fields(string(out))
	if len(f) != 2 || f[0] != "setup_s" {
		return 0, fmt.Errorf("child set-up printed %q", out)
	}
	return strconv.ParseFloat(f[1], 64)
}

// benchSpec is the part of BENCHMARK.json the program reads: the metric
// names each mode must print, in order, with their units.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, errors.New("benchmark spec lists no metrics")
	}
	return &s, nil
}

// median returns the median of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
