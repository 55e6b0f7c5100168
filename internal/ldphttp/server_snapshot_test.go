package ldphttp

// Durability tests: ingest → snapshot → reload must be lossless (bit-identical
// cached estimates, identical histograms), a kill/restart must resume within
// the statistical acceptance bounds, and damaged snapshot files must fail
// cleanly without touching server state.

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ldptest"
	"repro/internal/mechanism"
	"repro/internal/metrics"
	"repro/internal/randx"
	"repro/internal/snapshot"
)

// loadRecords reads a snapshot file's stream records, failing the test on
// any error.
func loadRecords(t *testing.T, path string) []snapshot.Stream {
	t.Helper()
	recs, err := snapshot.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestSnapshotRoundTripBitIdentical is the property test of the durability
// layer: after save → close → new server → load, the restored cached
// estimate is bit-for-bit the one the first server computed, and the report
// histograms match count for count.
func TestSnapshotRoundTripBitIdentical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.snap")

	s1 := NewServer(Config{Epsilon: 1, Buckets: 64, RefreshInterval: 10 * time.Millisecond})
	ts1 := httptest.NewServer(s1.Handler())
	if err := s1.CreateStream("age", StreamConfig{Epsilon: 2, Buckets: 32}); err != nil {
		t.Fatal(err)
	}

	// Deterministic ingestion into both streams, then fresh estimates.
	rep1, err := ldptest.CheckServing(ts1.URL,
		func(rng *randx.Rand) float64 { return rng.Beta(5, 2) },
		ldptest.ServingOptions{Epsilon: 1, Buckets: 64, Clients: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := ldptest.CheckServing(ts1.URL,
		func(rng *randx.Rand) float64 { return rng.Beta(2, 6) },
		ldptest.ServingOptions{Stream: "age", Epsilon: 2, Buckets: 32, Clients: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}

	if err := s1.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	// Kill the first server entirely.
	ts1.Close()
	s1.Close()

	// Restart: a fresh process restores from the snapshot.
	s2 := NewServer(Config{Epsilon: 1, Buckets: 64, RefreshInterval: time.Hour})
	t.Cleanup(s2.Close)
	if err := s2.LoadSnapshot(path); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)

	// The restored server serves estimates immediately (no re-estimation
	// possible: the engine's tick is an hour out and nothing new arrived),
	// and they are bit-identical to the pre-kill ones.
	for _, tc := range []struct {
		stream string
		want   []float64
		n      int
	}{
		{"", rep1.Estimate, 2000},
		{"age", rep2.Estimate, 2000},
	} {
		est := getFreshStreamEstimate(t, ts2.URL, tc.stream, tc.n)
		if !est.Restored {
			t.Errorf("stream %q estimate not marked restored", tc.stream)
		}
		if len(est.Distribution) != len(tc.want) {
			t.Fatalf("stream %q restored %d buckets, want %d", tc.stream, len(est.Distribution), len(tc.want))
		}
		for i := range tc.want {
			if est.Distribution[i] != tc.want[i] {
				t.Fatalf("stream %q bucket %d: restored %v != original %v (not bit-identical)",
					tc.stream, i, est.Distribution[i], tc.want[i])
			}
		}
	}

	// Count-for-count histogram equality: snapshotting the restored server
	// reproduces the same file payload modulo the save timestamp — compare
	// the parsed records instead of bytes.
	path2 := filepath.Join(t.TempDir(), "state2.snap")
	if err := s2.SaveSnapshot(path2); err != nil {
		t.Fatal(err)
	}
	recs1 := loadRecords(t, path)
	recs2 := loadRecords(t, path2)
	if len(recs1) != len(recs2) {
		t.Fatalf("round trip changed stream count: %d -> %d", len(recs1), len(recs2))
	}
	for i := range recs1 {
		a, b := recs1[i], recs2[i]
		if a.Name != b.Name || len(a.Counts) != len(b.Counts) {
			t.Fatalf("round trip changed stream %q shape", a.Name)
		}
		for j := range a.Counts {
			if a.Counts[j] != b.Counts[j] {
				t.Errorf("stream %q count[%d]: %d -> %d", a.Name, j, a.Counts[j], b.Counts[j])
			}
		}
	}
}

// TestSnapshotRestartWithinBounds is the kill/restart acceptance criterion:
// the estimate a restarted server serves from its snapshot must still be
// within the statistical acceptance bounds of the true distribution, and
// ingestion must resume seamlessly on top of the restored state.
func TestSnapshotRestartWithinBounds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.snap")

	s1 := NewServer(Config{Epsilon: 1, Buckets: 64, RefreshInterval: 10 * time.Millisecond})
	ts1 := httptest.NewServer(s1.Handler())
	rep, err := ldptest.CheckServing(ts1.URL,
		func(rng *randx.Rand) float64 { return rng.Beta(5, 2) },
		ldptest.ServingOptions{Epsilon: 1, Buckets: 64, Clients: 4000, Seed: 17,
			MaxW1: acceptW1, MaxKS: acceptKS})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	s1.Close()

	s2 := NewServer(Config{Epsilon: 1, Buckets: 64, RefreshInterval: 10 * time.Millisecond})
	t.Cleanup(s2.Close)
	if err := s2.LoadSnapshot(path); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)

	restored := getFreshStreamEstimate(t, ts2.URL, "", 4000)
	w1 := metrics.Wasserstein(rep.Truth, restored.Distribution)
	ks := metrics.KS(rep.Truth, restored.Distribution)
	t.Logf("restored: W1=%.4f KS=%.4f", w1, ks)
	if w1 > acceptW1 {
		t.Errorf("restored estimate W1 = %.4f exceeds acceptance bound %.4f", w1, acceptW1)
	}
	if ks > acceptKS {
		t.Errorf("restored estimate KS = %.4f exceeds acceptance bound %.4f", ks, acceptKS)
	}

	// The restored histogram keeps accumulating: a second population lands
	// on top and the estimate still tracks the (unchanged) truth shape.
	rep2, err := ldptest.CheckServing(ts2.URL,
		func(rng *randx.Rand) float64 { return rng.Beta(5, 2) },
		ldptest.ServingOptions{Epsilon: 1, Buckets: 64, Clients: 4000, Seed: 19,
			Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// CheckServing polls until N ≥ its own population; with the restored
	// 4000 the estimate covers 8000.
	final := getFreshStreamEstimate(t, ts2.URL, "", 8000)
	w1 = metrics.Wasserstein(rep2.Truth, final.Distribution)
	if w1 > acceptW1 {
		t.Errorf("post-restart combined estimate W1 = %.4f exceeds %.4f", w1, acceptW1)
	}
}

// TestLoadSnapshotErrors asserts damaged or incompatible files fail cleanly
// and leave the server untouched.
func TestLoadSnapshotErrors(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.snap")

	s := NewServer(Config{Epsilon: 1, Buckets: 64, RefreshInterval: time.Hour})
	t.Cleanup(s.Close)
	if err := s.CreateStream("age", StreamConfig{Epsilon: 1, Buckets: 32}); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveSnapshot(good); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	fresh := func(t *testing.T) *Server {
		t.Helper()
		srv := NewServer(Config{Epsilon: 1, Buckets: 64, RefreshInterval: time.Hour})
		t.Cleanup(srv.Close)
		return srv
	}

	t.Run("missing file", func(t *testing.T) {
		if err := fresh(t).LoadSnapshot(filepath.Join(dir, "nope.snap")); err == nil {
			t.Error("loading a missing file succeeded")
		}
	})

	t.Run("truncated", func(t *testing.T) {
		p := filepath.Join(dir, "trunc.snap")
		if err := os.WriteFile(p, blob[:len(blob)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		srv := fresh(t)
		if err := srv.LoadSnapshot(p); err == nil {
			t.Error("loading a truncated file succeeded")
		}
		if len(srv.Streams()) != 1 || srv.N() != 0 {
			t.Error("failed load mutated server state")
		}
	})

	t.Run("corrupt", func(t *testing.T) {
		bad := append([]byte(nil), blob...)
		bad[len(bad)-3] ^= 0x55
		p := filepath.Join(dir, "corrupt.snap")
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := fresh(t).LoadSnapshot(p); err == nil {
			t.Error("loading a corrupt file succeeded")
		}
	})

	t.Run("atomic: bad record later in the file merges nothing", func(t *testing.T) {
		// First record is valid and targets the live default stream; the
		// second fails stream construction (bandwidth out of range, which
		// only ldphttp validates). The restore must reject the whole file
		// without merging the first record's counts.
		p := filepath.Join(dir, "mixed.snap")
		recs := []snapshot.Stream{
			{Name: DefaultStream, Epsilon: 1, Buckets: 64, Counts: make([]uint64, 64)},
			{Name: "broken", Epsilon: 1, Buckets: 32, Bandwidth: 3, Counts: make([]uint64, 32)},
		}
		recs[0].Counts[10] = 500
		if err := snapshot.Save(p, recs); err != nil {
			t.Fatal(err)
		}
		srv := fresh(t)
		if err := srv.LoadSnapshot(p); err == nil {
			t.Fatal("restore with an invalid record succeeded")
		}
		if srv.N() != 0 {
			t.Errorf("partial restore merged %d reports, want 0", srv.N())
		}
		if len(srv.Streams()) != 1 {
			t.Errorf("partial restore registered %d streams, want 1", len(srv.Streams()))
		}
	})

	t.Run("invalid stream name", func(t *testing.T) {
		// The file is outside input: a name CreateStream refuses must not
		// enter the registry through a restore either.
		for _, name := range []string{"bad\nname", strings.Repeat("n", 65)} {
			p := filepath.Join(dir, "badname.snap")
			if err := snapshot.Save(p, []snapshot.Stream{
				{Name: name, Epsilon: 1, Buckets: 32, Counts: make([]uint64, 32)},
			}); err != nil {
				t.Fatal(err)
			}
			srv := fresh(t)
			if err := srv.LoadSnapshot(p); err == nil {
				t.Errorf("restored stream name %q", name)
			}
			if len(srv.Streams()) != 1 {
				t.Errorf("name %q: failed restore registered %d streams, want 1", name, len(srv.Streams()))
			}
		}
	})

	t.Run("buckets over the cap", func(t *testing.T) {
		// A checksummed record may declare any granularity; the restore
		// must refuse one over mechanism.MaxBuckets before it allocates
		// the stream's counters, and register nothing.
		p := filepath.Join(dir, "huge.snap")
		if err := snapshot.Save(p, []snapshot.Stream{{Name: "huge", Epsilon: 1, Buckets: mechanism.MaxBuckets + 1,
			Mechanism: mechanism.GRR, Counts: make([]uint64, mechanism.MaxBuckets+1)}}); err != nil {
			t.Fatal(err)
		}
		srv := fresh(t)
		if err := srv.LoadSnapshot(p); err == nil || !strings.Contains(err.Error(), "at most") {
			t.Errorf("restore of a record over the bucket cap: %v", err)
		}
		if len(srv.Streams()) != 1 {
			t.Errorf("failed restore registered %d streams, want 1", len(srv.Streams()))
		}
	})

	t.Run("config mismatch", func(t *testing.T) {
		// A live stream with different parameters than the snapshot's
		// record must reject the whole restore, and nothing may merge.
		srv := fresh(t)
		if err := srv.CreateStream("age", StreamConfig{Epsilon: 3, Buckets: 16}); err != nil {
			t.Fatal(err)
		}
		if err := srv.LoadSnapshot(good); err == nil {
			t.Error("config-mismatched restore succeeded")
		}
		if srv.N() != 0 {
			t.Error("rejected restore still merged counts")
		}
	})
}
