package diagnose

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// betaDist discretizes a Beta(a, b) density over d buckets — the cohort
// shape the server-level tests use, reproduced here without any server.
func betaDist(a, b float64, d int) []float64 {
	x := make([]float64, d)
	var sum float64
	for i := range x {
		u := (float64(i) + 0.5) / float64(d)
		x[i] = math.Pow(u, a-1) * math.Pow(1-u, b-1)
		sum += x[i]
	}
	for i := range x {
		x[i] /= sum
	}
	return x
}

// noisy perturbs a distribution with bounded multiplicative noise and
// renormalizes — a stand-in for sampling + LDP reconstruction noise.
func noisy(dist []float64, amp float64, rng *rand.Rand) []float64 {
	out := make([]float64, len(dist))
	var sum float64
	for i, v := range dist {
		out[i] = v * (1 + amp*(2*rng.Float64()-1))
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

func windowedTracker() *Tracker {
	return NewTracker(TrackerConfig{
		Mechanism: "sw", Epsilon: 1, Buckets: 64,
		EMBased: true, Windowed: true,
	})
}

func TestStationaryCohortNeverAlerts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := windowedTracker()
	base := betaDist(5, 2, 64)
	for epoch := 0; epoch < 50; epoch++ {
		raised := tr.ObserveEpoch(epoch, noisy(base, 0.15, rng))
		dr := tr.Snapshot(0).Drift
		if raised {
			t.Fatalf("epoch %d: stationary cohort raised an alert (w1=%v ks=%v)", epoch, dr.W1, dr.KS)
		}
		if dr.EpochsScored != epoch {
			t.Fatalf("epoch %d: %d epochs scored, want %d", epoch, dr.EpochsScored, epoch)
		}
	}
	rec := tr.Snapshot(0)
	if rec.Drift == nil {
		t.Fatal("windowed tracker snapshot has no drift block")
	}
	if rec.Drift.Alerting || rec.Drift.AlertsTotal != 0 {
		t.Fatalf("stationary drift state = %+v, want quiet", rec.Drift)
	}
	if rec.Drift.EpochsScored != 49 {
		t.Fatalf("epochs scored = %d, want 49", rec.Drift.EpochsScored)
	}
}

func TestStepChangeFiresAndClearsWithHysteresis(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := windowedTracker()
	old := betaDist(5, 2, 64)
	new_ := betaDist(2, 5, 64)
	for epoch := 0; epoch < 10; epoch++ {
		if tr.ObserveEpoch(epoch, noisy(old, 0.1, rng)) {
			t.Fatalf("epoch %d: pre-shift alert", epoch)
		}
	}
	// The step: epoch 10 is the first drawn from the shifted cohort. The
	// old-vs-new score is large, so the alert must raise immediately.
	if !tr.ObserveEpoch(10, noisy(new_, 0.1, rng)) {
		t.Fatal("step change did not raise the drift alert")
	}
	if !tr.Alerting() {
		t.Fatal("tracker not alerting after raise")
	}
	// New-vs-new epochs are quiet again, but the alert must survive until
	// three consecutive quiet epochs have passed.
	clearedAt := -1
	for epoch := 11; epoch < 20; epoch++ {
		tr.ObserveEpoch(epoch, noisy(new_, 0.1, rng))
		if !tr.Alerting() {
			clearedAt = epoch
			break
		}
	}
	if clearedAt != 13 {
		t.Fatalf("alert cleared at epoch %d, want 13 (3 quiet epochs after the spike)", clearedAt)
	}
	rec := tr.Snapshot(0)
	if rec.Drift.AlertsTotal != 1 {
		t.Fatalf("alerts total = %d, want 1", rec.Drift.AlertsTotal)
	}
	if rec.Drift.StateSinceEpoch != 13 {
		t.Fatalf("state since epoch = %d, want 13", rec.Drift.StateSinceEpoch)
	}
}

func TestSlowRampFiresAndClears(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tr := windowedTracker()
	// A ramp: the cohort mean slides a little every epoch for 6 epochs,
	// each consecutive pair differing by more than the fire threshold,
	// then parks at the final shape.
	shapes := []struct{ a, b float64 }{
		{5, 2}, {5, 2}, {4.2, 2.6}, {3.4, 3.2}, {2.6, 3.8}, {2, 5}, {2, 5}, {2, 5}, {2, 5}, {2, 5}, {2, 5},
	}
	var everRaised bool
	for epoch, s := range shapes {
		everRaised = tr.ObserveEpoch(epoch, noisy(betaDist(s.a, s.b, 64), 0.1, rng)) || everRaised
	}
	if !everRaised {
		t.Fatal("slow ramp never raised the drift alert")
	}
	if tr.Alerting() {
		t.Fatal("alert still raised after the ramp settled")
	}
	rec := tr.Snapshot(0)
	if rec.Drift.AlertsTotal != 1 {
		t.Fatalf("alerts total = %d, want 1 (one raise across the whole ramp)", rec.Drift.AlertsTotal)
	}
}

func TestDeadBandHoldsStateAndResetsClearStreak(t *testing.T) {
	tr := windowedTracker()
	flat := make([]float64, 10)
	for i := range flat {
		flat[i] = 0.1
	}
	// shifted(mass) moves `mass` probability from bucket 0 to bucket 9:
	// KS = mass and, in this package's normalized form, W1 = mass·(d−1)/d.
	shifted := func(mass float64) []float64 {
		out := append([]float64(nil), flat...)
		out[0] -= mass
		out[9] += mass
		return out
	}
	tr.ObserveEpoch(0, flat)
	if !tr.ObserveEpoch(1, shifted(0.2)) { // W1 = 0.18 ≥ 0.08
		t.Fatal("large shift did not raise")
	}
	// Back to flat: the score vs the shifted epoch is large again — still
	// firing territory, no state change.
	tr.ObserveEpoch(2, flat)
	if !tr.Alerting() {
		t.Fatal("alert dropped while scores still high")
	}
	// One quiet epoch, then a dead-band epoch (0.04 < W1 < 0.08, KS below
	// both thresholds): the clear streak must reset, so three more quiet
	// epochs are needed.
	tr.ObserveEpoch(3, flat)          // quiet (W1 = 0): streak 1
	tr.ObserveEpoch(4, shifted(0.06)) // dead band (W1 = 0.054): streak resets
	tr.ObserveEpoch(5, shifted(0.06)) // quiet vs identical epoch: streak 1
	tr.ObserveEpoch(6, shifted(0.06)) // quiet: streak 2
	if !tr.Alerting() {
		t.Fatal("alert cleared through the dead band")
	}
	tr.ObserveEpoch(7, shifted(0.06)) // quiet: streak 3 → clears
	if tr.Alerting() {
		t.Fatal("alert did not clear after three quiet epochs")
	}
}

func TestObserveEpochIgnoresNonWindowedAndEmpty(t *testing.T) {
	plain := NewTracker(TrackerConfig{Mechanism: "grr", Epsilon: 1, Buckets: 32})
	if plain.ObserveEpoch(0, []float64{1}) {
		t.Fatal("non-windowed tracker raised an alert")
	}
	if plain.Snapshot(0).Drift != nil {
		t.Fatal("non-windowed snapshot carries a drift block")
	}
	win := windowedTracker()
	win.ObserveEpoch(0, nil)
	if dr := win.Snapshot(0).Drift; dr.EpochsScored != 0 || dr.LastEpoch != -1 {
		t.Fatalf("empty estimate was observed: %+v", dr)
	}
	if win.LastEpochEstimate() != nil {
		t.Fatal("empty estimate primed the baseline")
	}
}

func TestWarmStartEffectiveness(t *testing.T) {
	tr := NewTracker(TrackerConfig{Mechanism: "sw", Epsilon: 1, Buckets: 64, EMBased: true})
	tr.ObserveRefresh(Refresh{Iterations: 120, LogLikelihood: -500, LastDelta: 0.01, Converged: true, Users: 100})
	tr.ObserveRefresh(Refresh{Iterations: 12, Converged: true, Warm: true, Users: 150})
	tr.ObserveRefresh(Refresh{Iterations: 8, Converged: true, Warm: true, Users: 200})
	rec := tr.Snapshot(0)
	ws := rec.WarmStart
	if ws.ColdIterations != 120 || ws.WarmRefreshes != 2 {
		t.Fatalf("warm-start stats = %+v", ws)
	}
	if ws.MeanWarmIterations != 10 {
		t.Fatalf("mean warm iterations = %v, want 10", ws.MeanWarmIterations)
	}
	if ws.Speedup != 12 {
		t.Fatalf("speedup = %v, want 12", ws.Speedup)
	}
	if !ws.LastWarm {
		t.Fatal("last refresh not marked warm")
	}
	if rec.Refreshes != 3 {
		t.Fatalf("refreshes = %d, want 3", rec.Refreshes)
	}
	if rec.Confidence.Variance <= 0 || rec.Confidence.HalfWidth <= 0 {
		t.Fatalf("confidence block empty at users=200: %+v", rec.Confidence)
	}
}

func TestHitMaxItersFlag(t *testing.T) {
	tr := NewTracker(TrackerConfig{Mechanism: "sw", Epsilon: 1, Buckets: 64, EMBased: true})
	tr.ObserveRefresh(Refresh{Iterations: 10000, LogLikelihood: -1, LastDelta: 5, Converged: false, Users: 10})
	rec := tr.Snapshot(0)
	if !rec.Convergence.HitMaxIters || rec.Convergence.Converged {
		t.Fatalf("convergence = %+v, want hit-max-iters", rec.Convergence)
	}
	// The matrix-free oracle path reports Converged (its one pass is
	// exact): HitMaxIters must stay false even on a hypothetical
	// non-converged observation, because there is no iteration budget.
	or := NewTracker(TrackerConfig{Mechanism: "grr", Epsilon: 1, Buckets: 32})
	or.ObserveRefresh(Refresh{Iterations: 1, Converged: true, Users: 10})
	if or.Snapshot(0).Convergence.HitMaxIters {
		t.Fatal("oracle path flagged hit-max-iters")
	}
}

func TestHalfWidth(t *testing.T) {
	if hw := HalfWidth(-1); hw != 0 {
		t.Errorf("HalfWidth(-1) = %v, want 0", hw)
	}
	if hw := HalfWidth(4); math.Abs(hw-2*z95) > 1e-12 {
		t.Errorf("HalfWidth(4) = %v, want %v", hw, 2*z95)
	}
}

func TestSnapshotAlwaysMarshals(t *testing.T) {
	tr := windowedTracker()
	// Non-finite observations (a MaxIters=1 run reports LastDelta 0, but
	// defend against any future +Inf leaking through) must not poison the
	// JSON surface; n=0 yields +Inf variance, also sanitized.
	tr.ObserveRefresh(Refresh{Iterations: 1, LogLikelihood: math.Inf(-1), LastDelta: math.NaN()})
	b, err := json.Marshal(tr.Snapshot(0))
	if err != nil {
		t.Fatalf("snapshot does not marshal: %v", err)
	}
	var back Record
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("snapshot round trip: %v", err)
	}
	if back.Convergence.LogLikelihood != 0 || back.Convergence.LastDelta != 0 {
		t.Fatalf("non-finite values not sanitized: %+v", back.Convergence)
	}
}

func TestSnapshotUsersOverride(t *testing.T) {
	tr := NewTracker(TrackerConfig{Mechanism: "grr", Epsilon: 1, Buckets: 32})
	tr.ObserveRefresh(Refresh{Iterations: 1, Converged: true, Users: 100})
	at100 := tr.Snapshot(0).Confidence.HalfWidth
	at400 := tr.Snapshot(400).Confidence.HalfWidth
	if math.Abs(at100/at400-2) > 1e-9 {
		t.Fatalf("half-width at n=100 (%v) should be 2x half-width at n=400 (%v)", at100, at400)
	}
}
