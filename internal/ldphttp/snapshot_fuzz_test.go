package ldphttp

// FuzzSnapshotLoad and FuzzSnapshotPayload drive the restore path with
// hostile snapshot files: snapshot.LoadFile and Server.LoadSnapshot must
// never panic, a file LoadFile rejects must not load, and a failed load must
// leave the stream registry exactly as it was. The seed is a real snapshot
// holding plain and windowed streams plus federation state on both sides
// (peer cursors of an edge that pushed here, and this server's own acked
// push cursor).

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/snapshot"
)

// FuzzSnapshotLoad mutates whole files, header included.
func FuzzSnapshotLoad(f *testing.F) {
	seed := snapshotSeed(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte("LDPSNAP1 00000000 0\n"))
	f.Add([]byte{})
	fuzzRestore(f, func(data []byte) []byte { return data })
}

// FuzzSnapshotPayload mutates the JSON payload only: each input is wrapped
// in a freshly computed "LDPSNAP1 <crc32> <len>" header, so mutations reach
// the JSON decoder and the restore validation instead of dying at the
// checksum.
func FuzzSnapshotPayload(f *testing.F) {
	seed := snapshotSeed(f)
	f.Add(seed[bytes.IndexByte(seed, '\n')+1:])
	fuzzRestore(f, func(payload []byte) []byte {
		return fmt.Appendf(nil, "LDPSNAP1 %08x %d\n%s", crc32.ChecksumIEEE(payload), len(payload), payload)
	})
}

// fuzzRestore runs the restore properties over file(input) for every
// fuzz input.
func fuzzRestore(f *testing.F, file func(input []byte) []byte) {
	// A booted collector: the default stream plus a declared windowed
	// stream, about to restore the way cmd/ldpserver does.
	clock := newMockClock()
	boot := func(tb testing.TB) *Server {
		srv := NewServer(Config{
			Epsilon: 1, Buckets: 32, RefreshInterval: time.Hour, RefreshWorkers: 1, Clock: clock.Now,
			Ops: OpsConfig{DisableTelemetry: true, Trace: TraceConfig{Disable: true}},
		})
		tb.Cleanup(srv.Close)
		if err := srv.CreateStream("lat", StreamConfig{
			Epsilon: 1, Buckets: 32, Epoch: Duration(time.Minute), Retain: 4,
		}); err != nil {
			tb.Fatal(err)
		}
		return srv
	}
	// Files LoadFile rejects must leave a collector untouched, so one
	// shared collector serves them all; an accepted file may load, and
	// gets a fresh collector.
	shared := boot(f)
	sharedStreams := shared.Streams()
	// Inputs run one at a time per process, so one file is reused.
	path := filepath.Join(f.TempDir(), "fuzz.snap")
	f.Fuzz(func(t *testing.T, input []byte) {
		if err := os.WriteFile(path, file(input), 0o644); err != nil {
			t.Fatal(err)
		}
		_, fileErr := snapshot.LoadFile(path)
		srv, before := shared, sharedStreams
		if fileErr == nil {
			srv = boot(t)
			before = srv.Streams()
		}
		err := srv.LoadSnapshot(path)
		if fileErr != nil && err == nil {
			t.Fatalf("LoadSnapshot accepted a file LoadFile rejects (%v)", fileErr)
		}
		if err != nil {
			if after := srv.Streams(); !reflect.DeepEqual(before, after) {
				t.Fatalf("failed load (%v) changed the registry:\nbefore %+v\nafter  %+v", err, before, after)
			}
		}
	})
}

// snapshotSeed builds a three-tier fleet on one mock clock — edge → mid →
// root — and returns the mid collector's snapshot file: a plain sw stream, a
// plain oue stream, a windowed stream with sealed epochs, the edge's peer
// cursor, and mid's own acked push cursor.
func snapshotSeed(tb testing.TB) []byte {
	tb.Helper()
	clock := newMockClock()
	newFed := func() (*Server, *httptest.Server) {
		s := NewServer(Config{
			Epsilon: 1, Buckets: 32, RefreshInterval: time.Hour, Clock: clock.Now,
			Federation: FederationConfig{Accept: true, AutoDeclare: true},
		})
		tb.Cleanup(s.Close)
		ts := httptest.NewServer(s.Handler())
		tb.Cleanup(ts.Close)
		return s, ts
	}
	_, rootURL := newFed()
	mid, midURL := newFed()
	edge, _ := newFed()
	for _, s := range []*Server{mid, edge} {
		if err := s.CreateStream("os", StreamConfig{Epsilon: 1, Buckets: 16, Mechanism: "oue"}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := mid.CreateStream("lat", StreamConfig{
		Epsilon: 1, Buckets: 32, Epoch: Duration(time.Minute), Retain: 4,
	}); err != nil {
		tb.Fatal(err)
	}
	lat := mid.lookup("lat").Ring()
	for e := 0; e < 3; e++ {
		lat.AddBatch([]int{e, e + 1, 5, 31})
		clock.Advance(time.Minute)
		lat.Advance(clock.Now())
	}
	lat.AddBatch([]int{7, 7})
	mid.lookup(DefaultStream).Ring().AddBatch([]int{0, 3, 3, 9, 31})
	mid.lookup("os").Ring().AddBatch([]int{1, 4, 16, 16})
	edge.lookup(DefaultStream).Ring().AddBatch([]int{2, 2, 30})
	edge.lookup("os").Ring().AddBatch([]int{0, 16})

	for _, hop := range []struct {
		from *Server
		to   *httptest.Server
		id   string
	}{{edge, midURL, "edge-1"}, {mid, rootURL, "mid"}} {
		if err := hop.from.EnablePush(PushOptions{URL: hop.to.URL, Edge: hop.id, Interval: time.Hour}); err != nil {
			tb.Fatal(err)
		}
		if ok, err := hop.from.PushNow(); !ok || err != nil {
			tb.Fatalf("push from %s: %v, %v", hop.id, ok, err)
		}
	}
	path := filepath.Join(tb.TempDir(), "seed.snap")
	if err := mid.SaveSnapshot(path); err != nil {
		tb.Fatal(err)
	}
	file, err := snapshot.LoadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	if fed := file.Federation; fed == nil || len(fed.Peers) != 1 || fed.Push == nil || fed.Push.Seq != 1 {
		tb.Fatalf("seed federation block %+v, want one peer and an acked push cursor", fed)
	}
	windowed := 0
	for _, rec := range file.Streams {
		if rec.Window != nil && len(rec.Window.Sealed) > 0 {
			windowed++
		}
	}
	if len(file.Streams) != 3 || windowed != 1 {
		tb.Fatalf("seed has %d streams (%d windowed with sealed epochs), want 3 (1)", len(file.Streams), windowed)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}
