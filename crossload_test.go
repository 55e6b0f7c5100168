package repro_test

import (
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro"
	"repro/internal/ldphttp"
	"repro/internal/snapshot"
)

// TestStreamsServerCrossLoad carries one snapshot across both registries:
// repro.Streams.Save → ldphttp.Server.LoadSnapshot → SaveSnapshot →
// repro.Streams.Load → Save. A plain sw stream, a windowed stream rotated
// once, and an oue stream keep their report count and histogram — live
// epoch, sealed epochs and rotation clock — at every hop.
func TestStreamsServerCrossLoad(t *testing.T) {
	dir := t.TempDir()
	decls := []struct {
		name string
		opts repro.Options
	}{
		{"plain", repro.Options{Epsilon: 1, Buckets: 32, Seed: 11}},
		{"lat", repro.Options{Epsilon: 2, Buckets: 16, Seed: 12, Epoch: time.Hour, Retain: 4}},
		{"os", repro.Options{Epsilon: 1, Buckets: 8, Seed: 13, Mechanism: "oue"}},
	}
	wantN := map[string]int{}
	lib := repro.NewStreams()
	for i, d := range decls {
		agg, err := lib.Declare(d.name, d.opts)
		if err != nil {
			t.Fatal(err)
		}
		client, err := repro.NewClient(d.opts)
		if err != nil {
			t.Fatal(err)
		}
		ingest := func(n int, v float64) {
			for j := 0; j < n; j++ {
				if err := agg.IngestReport(client.Perturb(v + 0.01*float64(j%7))); err != nil {
					t.Fatal(err)
				}
			}
		}
		ingest(300+100*i, 0.3)
		if d.opts.Epoch > 0 {
			if err := agg.Rotate(); err != nil {
				t.Fatal(err)
			}
			ingest(120, 0.7)
		}
		wantN[d.name] = agg.N()
	}

	libFile := filepath.Join(dir, "lib.snap")
	if err := lib.Save(libFile); err != nil {
		t.Fatal(err)
	}
	want := snapshotStreams(t, libFile)

	srv := ldphttp.NewServer(ldphttp.Config{Epsilon: 1, Buckets: 16, RefreshInterval: time.Hour})
	t.Cleanup(srv.Close)
	if err := srv.LoadSnapshot(libFile); err != nil {
		t.Fatal(err)
	}
	for name, n := range wantN {
		if got := srv.StreamN(name); got != n {
			t.Errorf("server %q: N = %d, want %d", name, got, n)
		}
	}
	srvFile := filepath.Join(dir, "srv.snap")
	if err := srv.SaveSnapshot(srvFile); err != nil {
		t.Fatal(err)
	}
	compareStreams(t, "server save", want, snapshotStreams(t, srvFile))

	back := repro.NewStreams()
	if err := back.Load(srvFile); err != nil {
		t.Fatal(err)
	}
	for name, n := range wantN {
		agg, ok := back.Get(name)
		if !ok {
			t.Fatalf("library reload is missing %q", name)
		}
		if agg.N() != n {
			t.Errorf("library reload %q: N = %d, want %d", name, agg.N(), n)
		}
	}
	backFile := filepath.Join(dir, "back.snap")
	if err := back.Save(backFile); err != nil {
		t.Fatal(err)
	}
	compareStreams(t, "library reload", want, snapshotStreams(t, backFile))
}

// snapshotStreams reads a snapshot's stream records by name.
func snapshotStreams(t *testing.T, path string) map[string]snapshot.Stream {
	t.Helper()
	file, err := snapshot.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]snapshot.Stream, len(file.Streams))
	for _, rec := range file.Streams {
		out[rec.Name] = rec
	}
	return out
}

// compareStreams checks that every stream of want reappears in got with the
// same declaration, report count and histograms.
func compareStreams(t *testing.T, hop string, want, got map[string]snapshot.Stream) {
	t.Helper()
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: stream %q missing", hop, name)
			continue
		}
		if g.MechanismName() != w.MechanismName() || g.Epsilon != w.Epsilon || g.Buckets != w.Buckets {
			t.Errorf("%s: %q declared as %s/%v/%d, want %s/%v/%d", hop, name,
				g.MechanismName(), g.Epsilon, g.Buckets, w.MechanismName(), w.Epsilon, w.Buckets)
		}
		if g.N() != w.N() || !slices.Equal(g.Counts, w.Counts) {
			t.Errorf("%s: %q live histogram differs (n %d, want %d)", hop, name, g.N(), w.N())
		}
		if (g.Window == nil) != (w.Window == nil) {
			t.Errorf("%s: %q windowed = %v, want %v", hop, name, g.Window != nil, w.Window != nil)
			continue
		}
		if w.Window == nil {
			continue
		}
		gw, ww := g.Window, w.Window
		if gw.EpochNanos != ww.EpochNanos || gw.Retain != ww.Retain ||
			gw.Current != ww.Current || gw.StartUnixNanos != ww.StartUnixNanos {
			t.Errorf("%s: %q rotation clock %+v, want %+v", hop, name, *gw, *ww)
		}
		if len(gw.Sealed) != len(ww.Sealed) {
			t.Errorf("%s: %q has %d sealed epochs, want %d", hop, name, len(gw.Sealed), len(ww.Sealed))
			continue
		}
		for i := range ww.Sealed {
			if gw.Sealed[i].Index != ww.Sealed[i].Index || gw.Sealed[i].N != ww.Sealed[i].N ||
				!slices.Equal(gw.Sealed[i].Counts, ww.Sealed[i].Counts) {
				t.Errorf("%s: %q sealed epoch %d differs", hop, name, ww.Sealed[i].Index)
			}
		}
	}
}
