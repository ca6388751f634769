package obs

import (
	"fmt"
	"strings"
	"testing"
)

func testSentinel() *Sentinel {
	return NewSentinel(SentinelConfig{
		Alpha: 0.2, DegradeFactor: 2, FloorFactor: 4,
		MinSamples: 4, RaiseAfter: 3, ClearAfter: 3,
	})
}

// feedHealthy warms a stream's EWMA baseline past MinSamples.
func feedHealthy(s *Sentinel, kind, subject string, v float64, n int) {
	for i := 0; i < n; i++ {
		s.Observe(kind, subject, v, int64(i))
	}
}

func TestSentinelRaisesAfterConsecutiveBreaches(t *testing.T) {
	s := testSentinel()
	feedHealthy(s, AlertKernelRegression, "ntt", 100, 8)
	// Two breaches: below RaiseAfter, no alert yet.
	if a := s.Observe(AlertKernelRegression, "ntt", 1000, 100); a != nil {
		t.Fatalf("alert after 1 breach: %+v", a)
	}
	if a := s.Observe(AlertKernelRegression, "ntt", 1000, 101); a != nil {
		t.Fatalf("alert after 2 breaches: %+v", a)
	}
	a := s.Observe(AlertKernelRegression, "ntt", 1000, 102)
	if a == nil {
		t.Fatal("no alert after RaiseAfter consecutive breaches")
	}
	if a.Kind != AlertKernelRegression || a.Subject != "ntt" || !a.Active() {
		t.Fatalf("bad alert: %+v", a)
	}
	if a.Baseline != 100 {
		t.Fatalf("alert baseline = %v, want the EWMA 100", a.Baseline)
	}
	if len(s.ActiveAlerts()) != 1 {
		t.Fatalf("active alerts = %d, want 1", len(s.ActiveAlerts()))
	}
	// Continued breaching must not raise duplicates.
	if a := s.Observe(AlertKernelRegression, "ntt", 1000, 103); a != nil {
		t.Fatalf("duplicate alert while active: %+v", a)
	}
	if len(s.ActiveAlerts()) != 1 {
		t.Fatal("continued breach duplicated the alert")
	}
}

// TestSentinelDefaultWarmupCoversCleanBatch feeds, under the default
// config, stage-latency streams (µs) recorded from clean 16-job batches
// whose later stage runs were stretched by other processes on the host:
// ten settled samples, then three consecutive runs 3–13× slower. None
// is a regression. A sustained slowdown after the warm-up still raises.
func TestSentinelDefaultWarmupCoversCleanBatch(t *testing.T) {
	streams := [][]float64{
		{421, 396, 449, 351, 365, 805, 749, 339, 343, 336, 1510, 1606, 5748},
		{705, 1370, 2706, 578, 545, 460, 520, 532, 515, 596, 3070, 3611, 1971},
	}
	s := NewSentinel(SentinelConfig{})
	for i, stream := range streams {
		for j, v := range stream {
			if a := s.Observe(AlertStageRegression, fmt.Sprintf("stage/%d", i), v*1000, int64(j)); a != nil {
				t.Fatalf("clean stream %d raised at sample %d: %+v", i, j, a)
			}
		}
	}
	feedHealthy(s, AlertStageRegression, "stage/slow", 400e3, 32)
	var raised *Alert
	for i := 0; i < 3; i++ {
		raised = s.Observe(AlertStageRegression, "stage/slow", 1600e3, int64(100+i))
	}
	if raised == nil {
		t.Fatal("sustained 4x slowdown after the warm-up did not raise")
	}
}

// TestSentinelNoFlapping oscillates a value across the threshold every
// observation: hysteresis must keep the alert count at zero, because the
// streak never reaches RaiseAfter.
func TestSentinelNoFlapping(t *testing.T) {
	s := testSentinel()
	feedHealthy(s, AlertStageRegression, "commit", 100, 8)
	for i := 0; i < 100; i++ {
		v := 100.0
		if i%2 == 0 {
			v = 1000 // breach on even observations, recover on odd
		}
		if a := s.Observe(AlertStageRegression, "commit", v, int64(200+i)); a != nil {
			t.Fatalf("flapping stream raised an alert at i=%d: %+v", i, a)
		}
	}
	if n := len(s.Alerts()); n != 0 {
		t.Fatalf("flapping stream produced %d alerts, want 0", n)
	}
}

// TestSentinelClearsAfterRecovery drives raise → sustained recovery →
// clear, and checks the history entry mirrors the clear stamp.
func TestSentinelClearsAfterRecovery(t *testing.T) {
	s := testSentinel()
	feedHealthy(s, AlertStageRegression, "opening", 100, 8)
	for i := 0; i < 3; i++ {
		s.Observe(AlertStageRegression, "opening", 1000, int64(100+i))
	}
	if len(s.ActiveAlerts()) != 1 {
		t.Fatal("breach did not raise")
	}
	// Two healthy observations: not enough to clear.
	s.Observe(AlertStageRegression, "opening", 100, 200)
	s.Observe(AlertStageRegression, "opening", 100, 201)
	if len(s.ActiveAlerts()) != 1 {
		t.Fatal("alert cleared before ClearAfter healthy observations")
	}
	s.Observe(AlertStageRegression, "opening", 100, 202)
	if len(s.ActiveAlerts()) != 0 {
		t.Fatal("alert did not clear after ClearAfter healthy observations")
	}
	hist := s.Alerts()
	if len(hist) != 1 || hist[0].Active() || hist[0].ClearedNs != 202 {
		t.Fatalf("history after clear: %+v", hist)
	}
}

// TestSentinelEWMAFrozenDuringBreach: the baseline must not absorb
// breaching samples, or the anomaly would become the new normal and the
// alert would self-clear while the regression persists.
func TestSentinelEWMAFrozenDuringBreach(t *testing.T) {
	s := testSentinel()
	feedHealthy(s, AlertKernelRegression, "msm", 100, 8)
	// A long sustained regression: if the EWMA chased it, later samples at
	// the same degraded level would stop counting as breaches.
	raised := false
	for i := 0; i < 50; i++ {
		if a := s.Observe(AlertKernelRegression, "msm", 1000, int64(100+i)); a != nil {
			raised = true
		}
	}
	if !raised {
		t.Fatal("sustained regression never raised")
	}
	if len(s.ActiveAlerts()) != 1 {
		t.Fatal("alert self-cleared during a sustained regression")
	}
	// Recovery to the original level must clear against the original baseline.
	for i := 0; i < 3; i++ {
		s.Observe(AlertKernelRegression, "msm", 100, int64(200+i))
	}
	if len(s.ActiveAlerts()) != 0 {
		t.Fatal("alert did not clear after recovery to the original level")
	}
}

// TestSentinelRooflineFloor: a value far above the calibrated floor
// breaches immediately, before any EWMA history exists.
func TestSentinelRooflineFloor(t *testing.T) {
	s := testSentinel()
	s.SetFloor("ntt-butterfly", 10) // floor 10 ns/elem, FloorFactor 4
	var a *Alert
	for i := 0; i < 3; i++ {
		a = s.Observe(AlertKernelRegression, "ntt-butterfly", 100, int64(i))
	}
	if a == nil {
		t.Fatal("floor breach with no EWMA history did not raise")
	}
	if a.Baseline != 10 || !strings.Contains(a.Reason, "roofline floor") {
		t.Fatalf("floor alert: baseline=%v reason=%q", a.Baseline, a.Reason)
	}
	// Within FloorFactor × floor is healthy regardless of magnitude.
	s2 := testSentinel()
	s2.SetFloor("ntt-butterfly", 10)
	for i := 0; i < 20; i++ {
		if a := s2.Observe(AlertKernelRegression, "ntt-butterfly", 39, int64(i)); a != nil {
			t.Fatalf("value under FloorFactor×floor raised: %+v", a)
		}
	}
}

// TestSentinelJudge drives the engine-computed-condition path (SLO burn,
// quarantine storms) through the same hysteresis.
func TestSentinelJudge(t *testing.T) {
	s := testSentinel()
	var a *Alert
	for i := 0; i < 3; i++ {
		a = s.Judge(AlertQuarantineStorm, "fleet", SeverityCritical, true, 0.5, 0.25, "storm", int64(i))
	}
	if a == nil || a.Severity != SeverityCritical {
		t.Fatalf("judge did not raise critical: %+v", a)
	}
	for i := 0; i < 3; i++ {
		s.Judge(AlertQuarantineStorm, "fleet", SeverityCritical, false, 0.1, 0.25, "", int64(10+i))
	}
	if len(s.ActiveAlerts()) != 0 {
		t.Fatal("judged alert did not clear")
	}
}

// TestSentinelIndependentStreams: one subject's breach must not leak into
// another subject's track.
func TestSentinelIndependentStreams(t *testing.T) {
	s := testSentinel()
	feedHealthy(s, AlertStageRegression, "commit", 100, 8)
	feedHealthy(s, AlertStageRegression, "opening", 100, 8)
	for i := 0; i < 3; i++ {
		s.Observe(AlertStageRegression, "commit", 1000, int64(100+i))
		s.Observe(AlertStageRegression, "opening", 100, int64(100+i))
	}
	active := s.ActiveAlerts()
	if len(active) != 1 || active[0].Subject != "commit" {
		t.Fatalf("active alerts = %+v, want exactly commit", active)
	}
}

func TestSentinelNilSafe(t *testing.T) {
	var s *Sentinel
	s.SetFloor("x", 1)
	s.SetFloors(map[string]float64{"y": 2})
	if a := s.Observe("k", "s", 1, 0); a != nil {
		t.Fatal("nil sentinel observed")
	}
	if a := s.Judge("k", "s", SeverityWarning, true, 1, 1, "", 0); a != nil {
		t.Fatal("nil sentinel judged")
	}
	if s.ActiveAlerts() != nil || s.Alerts() != nil {
		t.Fatal("nil sentinel returned alerts")
	}
}

func TestSentinelAlertCap(t *testing.T) {
	s := NewSentinel(SentinelConfig{MinSamples: 1, RaiseAfter: 1, ClearAfter: 1, AlertCap: 4, DegradeFactor: 2})
	for i := 0; i < 10; i++ {
		subj := "s" + string(rune('a'+i))
		feedHealthy(s, AlertKernelRegression, subj, 100, 2)
		s.Observe(AlertKernelRegression, subj, 1000, int64(100+i))
	}
	if n := len(s.Alerts()); n != 4 {
		t.Fatalf("alert history = %d entries, want capped at 4", n)
	}
}
