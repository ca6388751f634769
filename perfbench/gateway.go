package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"batchzk/internal/circuit"
	"batchzk/internal/core"
	"batchzk/internal/field"
	"batchzk/internal/protocol"
	"batchzk/internal/service"
	"batchzk/internal/telemetry"
)

// gateway-open: an open loop. Two tenants send Poisson arrivals over
// HTTP to a service.Gateway over a core.ShardedProver with one shard per
// core and the streaming commitment on, for a random circuit of 2^10
// multiplication gates. One proof is only ~12 ms of compute, so per-job
// fixed costs (HTTP and JSON, the batch window, stage hand-offs, short
// par kernels, allocation) are a large share of latency, and at this
// utilisation queueing magnifies service-time changes in the tail.
const (
	gwGates    = 1 << 10
	gwPublic   = 2
	gwSecret   = 2
	gwDepth    = 4
	gwTenants  = 2
	gwMaxBatch = 8
	gwMaxWait  = 2 * time.Millisecond
	// gwRate is the aggregate offered load in jobs/s: about 50% of the
	// gateway's capacity on a 2-core Intel Xeon host, where an
	// overloaded open loop completes about 82 jobs/s. At 60% queueing
	// doubled the run-to-run spread of the latency percentiles there.
	gwRate = 40.0
	// gwSLO is the latency limit of slo_attainment, timed from each
	// job's scheduled send time to its terminal event.
	gwSLO = 150 * time.Millisecond
	// gwSettle bounds the wait for terminal events after the last send;
	// a job without one by then counts as lost.
	gwSettle = 20 * time.Second
)

type gatewayBench struct {
	c      *circuit.Circuit
	p      *protocol.Params
	prover *core.ShardedProver
	gw     *service.Gateway
	srv    *http.Server
	served chan struct{}
	base   string
	inputs []input
	// bodies are the inputs' submission bodies, encoded before timing.
	bodies [][]byte
}

func setupGateway(o options) (runner, error) {
	c, err := circuit.RandomCircuit(gwGates, gwPublic, gwSecret, circuitSeed)
	if err != nil {
		return nil, err
	}
	p, err := protocol.Setup(c)
	if err != nil {
		return nil, err
	}
	prover, err := core.NewShardedProver(c, p, runtime.NumCPU(), gwDepth)
	if err != nil {
		return nil, err
	}
	gw, err := service.NewGateway(prover, service.Config{
		MaxBatch: gwMaxBatch, MaxWait: gwMaxWait, StreamingCommit: true,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gw.Drain()
		return nil, err
	}
	b := &gatewayBench{
		c: c, p: p, prover: prover, gw: gw,
		srv: &http.Server{Handler: gw.Handler()}, served: make(chan struct{}),
		base: "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(b.served)
		_ = b.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	if err := b.warmUp(o.seed); err != nil {
		b.close()
		return nil, err
	}
	if b.inputs, err = makeInputs(c, inputPool, o.seed); err != nil {
		b.close()
		return nil, err
	}
	for _, in := range b.inputs {
		body, err := json.Marshal(service.SubmitRequest{Public: decimals(in.public), Secret: decimals(in.secret)})
		if err != nil {
			b.close()
			return nil, err
		}
		b.bodies = append(b.bodies, body)
	}
	return b, nil
}

// warmUp proves one job over HTTP, filling the prover's caches.
func (b *gatewayBench) warmUp(seed int64) error {
	warm, err := makeInputs(b.c, 1, seed^0x5eed)
	if err != nil {
		return err
	}
	tp := oneConnection()
	defer tp.CloseIdleConnections()
	cl := &service.Client{Base: b.base, HTTP: &http.Client{Transport: tp}}
	ack, status, err := cl.SubmitJob("warm-up", 0, warm[0].public, warm[0].secret)
	if err != nil || status != http.StatusAccepted {
		return fmt.Errorf("warm-up submit: status %d, %v", status, err)
	}
	jr, err := cl.PollJob(ack.JobID, 30*time.Second)
	if err != nil {
		return fmt.Errorf("warm-up poll: %w", err)
	}
	if jr.Status != service.StatusDone {
		return fmt.Errorf("warm-up job ended %s: %s", jr.Status, jr.Err)
	}
	return nil
}

func (b *gatewayBench) close() {
	_ = b.srv.Close() // closing listeners; the error carries nothing new
	<-b.served
	b.gw.Drain()
}

// oneConnection is an HTTP transport that keeps a single keep-alive
// connection to the gateway.
func oneConnection() *http.Transport {
	return &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
}

func decimals(es []field.Element) []string {
	out := make([]string, len(es))
	for i := range es {
		out[i] = es[i].String()
	}
	return out
}

// arrival is one scheduled submission of the open loop.
type arrival struct {
	due    time.Duration // offset from the window's start
	tenant int
	input  int
}

// schedule draws the open loop's arrivals from seed: each tenant sends
// rate/tenants jobs/s as a Poisson process over window, conditioned on
// its expected count (uniform send times, sorted), so every seed offers
// the same number of jobs. The tenants' arrivals are merged in due
// order.
func schedule(seed int64, rate float64, tenants int, window time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	perTenant := int(rate * window.Seconds() / float64(tenants))
	var as []arrival
	for t := 0; t < tenants; t++ {
		for i := 0; i < perTenant; i++ {
			due := time.Duration(rng.Int63n(int64(window)))
			as = append(as, arrival{due: due, tenant: t, input: rng.Intn(inputPool)})
		}
	}
	sort.Slice(as, func(i, j int) bool { return as[i].due < as[j].due })
	return as
}

// openJob is one submission of the open loop and its outcome.
type openJob struct {
	arrival
	due    time.Time // scheduled send time
	sent   time.Time // the generator started the request
	acked  time.Time // the submit response arrived
	status int
	id     string
	err    error
}

// terminal is one terminal event read from the results stream.
type terminal struct {
	at time.Time
	ev service.Event
}

// openRun is one measured open-loop window.
type openRun struct {
	jobs    []*openJob
	events  map[string]terminal
	before  counters
	after   counters
	prover0 core.Stats
	prover1 core.Stats
	service service.GatewayStats
	// heap is the live heap after each collection in the window, with
	// the number of jobs completed by then.
	heap     []heapSample
	polls    int
	queueMax int
	// live0 and live1 are the live heap after a forced collection before
	// and after the window, and completed the jobs that finished in it.
	live0, live1 int64
	completed    int64
}

// openLoop sends the arrivals on schedule over one keep-alive submit
// connection, whatever the gateway's pace, and reads terminal events
// from one NDJSON stream connection: two connections in all. It returns
// once every accepted job has its terminal event, or gwSettle after the
// last send.
func (b *gatewayBench) openLoop(arrivals []arrival) (*openRun, error) {
	run := &openRun{events: make(map[string]terminal)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	streamTP := oneConnection()
	defer streamTP.CloseIdleConnections()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/v1/stream", nil)
	if err != nil {
		return nil, err
	}
	resp, err := (&http.Client{Transport: streamTP}).Do(req)
	if err != nil {
		return nil, fmt.Errorf("open result stream: %w", err)
	}
	var mu sync.Mutex
	// completed counts the jobs finished so far. The gateway keeps each
	// one, its proof included, for the rest of the run: its job history,
	// not its working set.
	var completed atomic.Int64
	arrived := make(chan struct{}, 1)
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			now := time.Now()
			var ev service.Event
			if json.Unmarshal(sc.Bytes(), &ev) != nil || ev.JobID == "" {
				continue
			}
			if ev.Status == service.StatusDone {
				completed.Add(1)
			}
			mu.Lock()
			run.events[ev.JobID] = terminal{at: now, ev: ev}
			mu.Unlock()
			select {
			case arrived <- struct{}{}:
			default:
			}
		}
	}()

	submitTP := oneConnection()
	defer submitTP.CloseIdleConnections()
	client := &http.Client{Transport: submitTP}
	run.live0 = liveHeapAfterGC()
	heap := startHeapSampler(&completed, func() {
		if d := b.gw.Stats().QueueDepth; d > run.queueMax {
			run.queueMax = d
		}
	})
	run.prover0 = b.gw.ProverStats()
	run.before = readCounters()
	start := run.before.at
	for _, a := range arrivals {
		j := &openJob{arrival: a, due: start.Add(a.due)}
		if d := time.Until(j.due); d > 0 {
			time.Sleep(d)
		}
		j.sent = time.Now()
		j.status, j.id, j.err = b.submit(client, a)
		j.acked = time.Now()
		run.jobs = append(run.jobs, j)
	}

	settle := time.NewTimer(gwSettle)
	defer settle.Stop()
	for waiting := true; waiting; {
		mu.Lock()
		missing := 0
		for _, j := range run.jobs {
			if _, ok := run.events[j.id]; j.status == http.StatusAccepted && !ok {
				missing++
			}
		}
		mu.Unlock()
		if missing == 0 {
			break
		}
		select {
		case <-arrived:
		case <-settle.C:
			waiting = false
		}
	}
	run.after = readCounters()
	run.prover1 = b.gw.ProverStats()
	run.service = b.gw.Stats()
	run.heap = heap.finish()
	run.polls = heap.ticks
	run.live1 = liveHeapAfterGC()
	run.completed = completed.Load()
	cancel()
	reader.Wait()
	return run, nil
}

// submit posts one pre-encoded job and returns the HTTP status and the
// job id the gateway assigned.
func (b *gatewayBench) submit(client *http.Client, a arrival) (int, string, error) {
	req, err := http.NewRequest(http.MethodPost, b.base+"/v1/jobs", bytes.NewReader(b.bodies[a.input]))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", "t"+strconv.Itoa(a.tenant))
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	var ack service.SubmitResponse
	if resp.StatusCode == http.StatusAccepted {
		err = json.NewDecoder(resp.Body).Decode(&ack)
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	return resp.StatusCode, ack.JobID, err
}

// gate fetches every completed job's proof over GET /v1/jobs/{id}/proof
// on one connection, then decodes each with ReadFrom and verifies it
// client-side in parallel, outside the timed window. It returns each
// job's latency from its scheduled send time to its terminal event
// (infinite unless the proof verified), the verification rate
// and the proof sizes.
func (b *gatewayBench) gate(rep *report, run *openRun) (lat []int64, verifyRate float64, sizes []float64, err error) {
	tp := oneConnection()
	defer tp.CloseIdleConnections()
	client := &http.Client{Transport: tp}
	blobs := make([][]byte, len(run.jobs))
	fetchErr := make([]string, len(run.jobs))
	for i, j := range run.jobs {
		t, ok := run.events[j.id]
		switch {
		case j.err != nil || j.status != http.StatusAccepted:
			fetchErr[i] = fmt.Sprintf("refused: status %d %v", j.status, j.err)
		case !ok:
			fetchErr[i] = "lost: no terminal event"
		case t.ev.Status != service.StatusDone:
			fetchErr[i] = fmt.Sprintf("ended %s: %s", t.ev.Status, t.ev.Err)
		default:
			if blobs[i], err = fetchProof(client, b.base, j.id); err != nil {
				fetchErr[i] = "fetch proof: " + err.Error()
			}
		}
	}
	vs, verifyRate := verifyAll(len(run.jobs), func(i int) verdict {
		if fetchErr[i] != "" {
			return verdict{reason: fetchErr[i]}
		}
		in := b.inputs[run.jobs[i].input]
		var pf protocol.Proof
		n, err := pf.ReadFrom(bytes.NewReader(blobs[i]))
		switch {
		case err != nil:
			return verdict{reason: "decode: " + err.Error()}
		case n != int64(len(blobs[i])):
			return verdict{reason: "trailing bytes after the proof"}
		}
		if err := protocol.Verify(b.c, b.p, in.public, &pf); err != nil {
			return verdict{reason: "verify: " + err.Error()}
		}
		if !sameElements(pf.Outputs, in.outputs) {
			return verdict{reason: "outputs differ from circuit.Evaluate"}
		}
		return verdict{ok: true}
	})
	lat = make([]int64, len(run.jobs))
	for i, v := range vs {
		rep.attempted++
		lat[i] = infLatency
		j := run.jobs[i]
		if !v.ok {
			rep.reject("arrival %d (job %q): %s", i, j.id, v.reason)
			continue
		}
		lat[i] = run.events[j.id].at.Sub(j.due).Nanoseconds()
		sizes = append(sizes, float64(len(blobs[i])))
	}
	if len(sizes) < 2 {
		return nil, 0, nil, fmt.Errorf("only %d verified proofs in the window", len(sizes))
	}
	return lat, verifyRate, sizes, nil
}

// fetchProof downloads a job's proof in its wire encoding.
func fetchProof(client *http.Client, base, id string) ([]byte, error) {
	resp, err := client.Get(base + "/v1/jobs/" + id + "/proof")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// throughput returns verified proofs per second between the first and
// the last terminal event, with the number of proofs. It is not sliced:
// an open loop's completions follow its Poisson arrivals, so a slice's
// rate varies by its share of them.
func (run *openRun) throughput(lat []int64) (float64, int) {
	var first, last time.Time
	n := 0
	for i, j := range run.jobs {
		if lat[i] == infLatency {
			continue
		}
		at := run.events[j.id].at
		if n == 0 || at.Before(first) {
			first = at
		}
		if n == 0 || at.After(last) {
			last = at
		}
		n++
	}
	if n < 2 {
		return 0, n
	}
	return float64(n-1) / last.Sub(first).Seconds(), n
}

// lateness returns how late the generator started each send.
func (run *openRun) lateness() []int64 {
	out := make([]int64, len(run.jobs))
	for i, j := range run.jobs {
		out[i] = j.sent.Sub(j.due).Nanoseconds()
	}
	return out
}

func (run *openRun) cpuMsPerProof(n int) float64 {
	return float64((run.after.cpu - run.before.cpu).Nanoseconds()) / 1e6 / float64(n)
}

func (b *gatewayBench) measure(o options, rep *report) error {
	run, err := b.openLoop(schedule(o.seed, gwRate, gwTenants, seconds(o.seconds)))
	if err != nil {
		return err
	}
	lat, vt, sizes, err := b.gate(rep, run)
	if err != nil {
		return err
	}
	pps, n := run.throughput(lat)
	rep.add("proofs_per_s", "proofs/s", pps, n)
	addLatencyMetrics(rep, lat, gwSLO)
	rep.add("verify_per_s", "proofs/s", vt, n)
	rep.add("proof_bytes", "bytes", median(sizes), n)
	// The gateway keeps every finished job, its proof included, so its
	// live heap grows with the jobs it has served; peak_heap_mib includes
	// that history. What one job leaves behind is the growth of the live
	// heap across the window per completed job. The working set
	// discounts that much for each job completed by the time of a sample.
	// Its largest sample spread by 25-40% across runs, since the
	// collector's floating garbage grows with the history, so it is
	// printed but not gated.
	perJob := 0.0
	if run.completed > 0 {
		perJob = max(0, float64(run.live1-run.live0)/float64(run.completed))
	}
	addPeakHeap(rep, "peak_heap_mib", run.heap, 0)
	rep.add("service.history_kib_per_job", "KiB", perJob/1024, int(run.completed))
	addPeakHeap(rep, "service.working_set_peak_mib", run.heap, perJob)
	rep.add("cpu_ms_per_proof", "ms", run.cpuMsPerProof(n), n)
	rep.add("service.gen_late_ms_p99", "ms", percentileMs(run.lateness(), 0.99), len(run.jobs))
	return nil
}

func (b *gatewayBench) traced(o options, rep *report, tr *tracer) error {
	half := seconds(o.seconds / 2)
	// A fresh admission window, so the batcher's counters cover only the
	// untraced half.
	b.gw.Drain()
	b.gw.Resume()
	plain, err := b.openLoop(schedule(o.seed, gwRate, gwTenants, half))
	if err != nil {
		return err
	}
	lat, _, _, err := b.gate(rep, plain)
	if err != nil {
		return err
	}
	_, n := plain.throughput(lat)
	addRuntimeMetrics(rep, plain.before, plain.after, n)
	addCoreMetrics(rep, plain.prover0, plain.prover1, plain.after.at.Sub(plain.before.at))
	addServiceMetrics(rep, plain)

	// Traced half: the prover's telemetry sink on (a new prover run picks
	// it up), and a span per job from its due time to its terminal event
	// with a child span for its submit request.
	sink := telemetry.NewSink(0)
	b.gw.Drain()
	b.prover.SetTelemetry(sink)
	b.gw.Resume()
	traced, err := b.openLoop(schedule(o.seed+1, gwRate, gwTenants, half))
	if err != nil {
		return err
	}
	latT, _, _, err := b.gate(rep, traced)
	if err != nil {
		return err
	}
	_, nT := traced.throughput(latT)
	addSinkMetrics(rep, sink)
	for i, j := range traced.jobs {
		end := j.acked
		if t, ok := traced.events[j.id]; ok {
			end = t.at
		}
		root := tr.record("service.job", 0, i, j.due, end)
		tr.record("service.submit", root, i, j.sent, j.acked)
	}
	// Throughput is the offered rate in an open loop, so the overhead is
	// read from CPU time per proof instead.
	rep.add("telemetry.overhead_frac", "fraction", traced.cpuMsPerProof(nT)/plain.cpuMsPerProof(n)-1, nT)

	return probeR1CS(tr, rep, b.c, b.p, b.inputs, true, nil)
}

// addServiceMetrics adds the service.* per-layer metrics of one window.
func addServiceMetrics(rep *report, run *openRun) {
	var rtt, server []int64
	perTenant := make([]service.TenantResult, gwTenants)
	for _, j := range run.jobs {
		rtt = append(rtt, j.acked.Sub(j.sent).Nanoseconds())
		if t, ok := run.events[j.id]; ok && t.ev.Status == service.StatusDone {
			server = append(server, t.ev.LatencyNs)
			perTenant[j.tenant].Completed++
		}
	}
	s := run.service
	rep.add("service.submit_ms_p50", "ms", percentileMs(rtt, 0.50), len(rtt))
	rep.add("service.submit_ms_p99", "ms", percentileMs(rtt, 0.99), len(rtt))
	rep.add("service.server_latency_ms_p50", "ms", percentileMs(server, 0.50), len(server))
	rep.add("service.batches", "count", float64(s.Batches), int(s.Batches))
	rep.add("service.batch_occupancy", "fraction", s.BatchOccupancy, int(s.Batches))
	rep.add("service.queue_depth_max", "count", float64(run.queueMax), run.polls)
	rep.add("service.rejected", "count", float64(s.RejectedQuota+s.RejectedQueue+s.RejectedDraining), len(run.jobs))
	rep.add("service.retries", "count", float64(s.Retries), len(run.jobs))
	rep.add("service.fairness_jain", "fraction", (&service.LoadResult{PerTenant: perTenant}).FairnessJain(), len(server))
	rep.add("service.gen_late_ms_p99", "ms", percentileMs(run.lateness(), 0.99), len(run.jobs))
}
