package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"batchzk/internal/circuit"
	"batchzk/internal/field"
)

// input is one job's circuit input with the outputs the circuit computes
// on it, which every returned proof must carry.
type input struct {
	public, secret, outputs []field.Element
}

// inputPool is how many distinct inputs a run cycles through.
const inputPool = 16

// makeInputs draws n inputs for c from seed and evaluates the circuit on
// each, before any timing starts.
func makeInputs(c *circuit.Circuit, n int, seed int64) ([]input, error) {
	rng := rand.New(rand.NewSource(seed))
	ins := make([]input, n)
	for i := range ins {
		in := input{public: randomElements(rng, c.NumPublic), secret: randomElements(rng, c.NumSecret)}
		w, err := c.Evaluate(in.public, in.secret)
		if err != nil {
			return nil, err
		}
		if in.outputs, err = c.OutputValues(w); err != nil {
			return nil, err
		}
		ins[i] = in
	}
	return ins, nil
}

func randomElements(rng *rand.Rand, n int) []field.Element {
	out := make([]field.Element, n)
	var b [48]byte
	for i := range out {
		rng.Read(b[:])
		out[i].SetBytesWide(b[:])
	}
	return out
}

func sameElements(a, b []field.Element) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(&b[i]) {
			return false
		}
	}
	return true
}

// loopJob is one job of a closed-loop window.
type loopJob struct {
	handed  time.Time // next() handed the job to the prover
	emitted time.Time // the prover emitted its result
	blob    []byte    // the serialized proof
	err     error
}

// loopRun is one measured closed-loop window.
type loopRun struct {
	mu     sync.Mutex
	jobs   []*loopJob
	before counters
	after  counters
	// heap is the live heap after each collection in the window, with
	// the proof bytes held for verification by then.
	heap []heapSample
}

// prover adapts a pipelined prover to the closed loop: it pulls job ids
// from next until next reports exhaustion and calls emit once per job
// with the serialized proof.
type prover func(next func() (int, bool), emit func(id int, blob []byte, err error))

// closedLoop keeps the prover's pipeline full for window: a new job is
// handed over whenever the prover pulls one, so load follows the
// prover's own pace. firstID numbers the jobs; with a tracer, each job
// gets a span named spanName from hand-over to emission.
func closedLoop(window time.Duration, firstID int, tr *tracer, spanName string, prove prover) *loopRun {
	lr := &loopRun{}
	var retained atomic.Int64
	spans := make(map[int]int)
	heap := startHeapSampler(&retained, nil)
	lr.before = readCounters()
	deadline := lr.before.at.Add(window)
	next := func() (int, bool) {
		now := time.Now()
		if !now.Before(deadline) {
			return 0, false
		}
		lr.mu.Lock()
		defer lr.mu.Unlock()
		id := firstID + len(lr.jobs)
		lr.jobs = append(lr.jobs, &loopJob{handed: now})
		if tr != nil {
			spans[id] = tr.begin(spanName, 0, id)
		}
		return id, true
	}
	emit := func(id int, blob []byte, err error) {
		now := time.Now()
		lr.mu.Lock()
		defer lr.mu.Unlock()
		j := lr.jobs[id-firstID]
		j.emitted, j.blob, j.err = now, blob, err
		retained.Add(int64(cap(blob)))
		if tr != nil {
			tr.end(spans[id])
		}
	}
	prove(next, emit)
	lr.after = readCounters()
	lr.heap = heap.finish()
	return lr
}

// verdict is the correctness gate's outcome for one job.
type verdict struct {
	ok     bool
	reason string
}

// verifyAll runs check(i) for i in [0, n) on GOMAXPROCS goroutines, as
// independent proofs verify in parallel. It returns the verdicts with
// the verifier throughput: checks per second of wall time over the whole
// batch.
func verifyAll(n int, check func(i int) verdict) ([]verdict, float64) {
	vs := make([]verdict, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				vs[i] = check(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return vs, float64(n) / time.Since(start).Seconds()
}

// gate checks every job of the window with check, outside the timed
// window, records rejections in rep, and returns the verdicts with the
// verification rate.
func (lr *loopRun) gate(rep *report, firstID int, check func(id int, j *loopJob) verdict) ([]verdict, float64) {
	vs, rate := verifyAll(len(lr.jobs), func(i int) verdict {
		if err := lr.jobs[i].err; err != nil {
			return verdict{reason: err.Error()}
		}
		return check(firstID+i, lr.jobs[i])
	})
	for i, v := range vs {
		rep.attempted++
		if !v.ok {
			rep.reject("job %d: %s", firstID+i, v.reason)
		}
	}
	return vs, rate
}

// throughput returns verified proofs per second over the window's
// emissions (the steady state, without the pipeline's fill), as the
// median over windowSlices runs of consecutive emissions, with the
// number of proofs.
func (lr *loopRun) throughput(vs []verdict) (float64, int) {
	var ts []time.Time
	for i, j := range lr.jobs {
		if vs[i].ok {
			ts = append(ts, j.emitted)
		}
	}
	return sliceRate(ts), len(ts)
}

// latencies returns each job's hand-over-to-emission time, infinite for
// a job that failed or did not verify.
func (lr *loopRun) latencies(vs []verdict) []int64 {
	lat := make([]int64, len(lr.jobs))
	for i, j := range lr.jobs {
		lat[i] = infLatency
		if vs[i].ok {
			lat[i] = j.emitted.Sub(j.handed).Nanoseconds()
		}
	}
	return lat
}

// addEndToEnd adds the closed-loop end-to-end metrics of the window.
func (lr *loopRun) addEndToEnd(rep *report, vs []verdict, verifyRate float64, slo time.Duration) error {
	pps, n := lr.throughput(vs)
	if n < 2 {
		return fmt.Errorf("only %d verified proofs in the window", n)
	}
	rep.add("proofs_per_s", "proofs/s", pps, n)
	addLatencyMetrics(rep, lr.latencies(vs), slo)
	sizes := make([]float64, 0, n)
	for i, v := range vs {
		if v.ok {
			sizes = append(sizes, float64(len(lr.jobs[i].blob)))
		}
	}
	rep.add("verify_per_s", "proofs/s", verifyRate, n)
	rep.add("proof_bytes", "bytes", median(sizes), n)
	addPeakHeap(rep, "peak_heap_mib", lr.heap, 1)
	rep.add("cpu_ms_per_proof", "ms", float64((lr.after.cpu-lr.before.cpu).Nanoseconds())/1e6/float64(n), n)
	return nil
}
