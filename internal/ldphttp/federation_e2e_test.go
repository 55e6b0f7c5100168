package ldphttp

// End-to-end federation acceptance: three edge collectors driven by seeded
// synthetic clients fold into one root over real HTTP, across the PR-4
// mechanism table (sw, grr, oue), and the root's state is bit-identical to a
// single collector that ingested the union of the reports — including one
// edge killed mid-push (its ack lost) and restarted from its snapshot
// without double counting. A -race stress test mixes pushes with live
// queries, ingestion, rotation and snapshots.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/randx"
	"repro/internal/snapshot"
)

// dropResponseTransport forwards requests to the real transport but reports
// failure to the caller — the push is applied at the root, the ack is lost,
// exactly the crash window the write-ahead cursor has to survive.
type dropResponseTransport struct {
	inner http.RoundTripper
	mu    sync.Mutex
	drops int
}

func (d *dropResponseTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := d.inner.RoundTrip(req)
	d.mu.Lock()
	defer d.mu.Unlock()
	if err == nil && d.drops > 0 {
		d.drops--
		resp.Body.Close()
		return nil, fmt.Errorf("response lost in flight")
	}
	return resp, err
}

// fedStream is one mechanism-table stream of the e2e scenario.
type fedStream struct {
	name    string
	mech    string
	eps     float64
	buckets int
	sample  func(*randx.Rand) float64
}

func fedTable() []fedStream {
	return []fedStream{
		{"vals-sw", "sw", 1, 48, func(rng *randx.Rand) float64 { return rng.Beta(5, 2) }},
		{"cat-grr", "grr", 1, 24, func(rng *randx.Rand) float64 { return rng.Beta(2, 2) }},
		{"cat-oue", "oue", 0.8, 24, func(rng *randx.Rand) float64 { return rng.Beta(2, 6) }},
	}
}

func (fs fedStream) config() StreamConfig {
	return StreamConfig{Epsilon: fs.eps, Buckets: fs.buckets, Mechanism: fs.mech}
}

// wireReports perturbs n sampled values with the stream's mechanism,
// returning the JSON wire shapes (bare numbers for scalar mechanisms).
func (fs fedStream) wireReports(rng *randx.Rand, n int) []any {
	client := core.NewClient(core.Config{
		Epsilon: fs.eps, Buckets: fs.buckets, Mechanism: fs.mech, Smoothing: true,
	})
	scalar := client.Mechanism().Scalar()
	out := make([]any, n)
	for i := range out {
		rep := client.Perturb(fs.sample(rng), rng)
		if scalar {
			out[i] = rep[0]
		} else {
			out[i] = []float64(rep)
		}
	}
	return out
}

func postWireBatch(t *testing.T, url, stream string, reports []any) {
	t.Helper()
	blob, err := json.Marshal(map[string]any{"stream": stream, "reports": reports})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+streamPath(stream)+"/batch", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch to %s stream %s: status %d", url, stream, resp.StatusCode)
	}
}

// declareTable declares every mechanism-table stream on a server.
func declareTable(t *testing.T, s *Server) {
	t.Helper()
	for _, fs := range fedTable() {
		if err := s.CreateStream(fs.name, fs.config()); err != nil {
			t.Fatal(err)
		}
	}
}

// quietServer builds a server whose engine only runs when woken or polled.
func quietServer(fed FederationConfig) *Server {
	return NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: time.Hour, Federation: fed})
}

// snapshotCounts loads a snapshot and indexes histograms by stream name.
func snapshotCounts(t *testing.T, path string) map[string][]uint64 {
	t.Helper()
	recs, err := snapshot.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]uint64, len(recs))
	for _, rec := range recs {
		out[rec.Name] = rec.Counts
	}
	return out
}

// stripEstimates rewrites a snapshot without any cached estimates (or
// federation cursors), so a fresh server restoring it computes every
// reconstruction cold — the determinism anchor for bit-identical
// comparisons.
func stripEstimates(t *testing.T, src, dst string) {
	t.Helper()
	recs, err := snapshot.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		recs[i].Estimate = nil
		recs[i].EstimateN = 0
		recs[i].EstimateRaw = 0
		if recs[i].Window != nil {
			recs[i].Window.Estimates = nil
		}
	}
	if err := snapshot.Save(dst, recs); err != nil {
		t.Fatal(err)
	}
}

func TestFederationEndToEndBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-server federation round in -short mode")
	}
	// The exactness guarantee is codec-independent: the same scenario runs
	// with every edge on JSON, every edge on the binary push codec, and a
	// mixed fleet where only the crashing edge speaks binary — and is then
	// restarted as a JSON pusher, so its frozen binary pending must replay
	// by body sniffing, not by configuration.
	t.Run("json", func(t *testing.T) { runFederationE2E(t, [3]bool{}, false) })
	t.Run("binary", func(t *testing.T) { runFederationE2E(t, [3]bool{true, true, true}, true) })
	t.Run("mixed", func(t *testing.T) { runFederationE2E(t, [3]bool{false, true, false}, false) })
}

func runFederationE2E(t *testing.T, edgeBinary [3]bool, restartBinary bool) {
	dir := t.TempDir()
	const perEdge = 400
	const extra = 150

	// The root accepts pushes and lets edges declare their streams; the
	// control collector ingests the union of every edge's reports directly.
	root := quietServer(FederationConfig{Accept: true, AutoDeclare: true})
	defer root.Close()
	rootTS := httptest.NewServer(root.Handler())
	defer rootTS.Close()
	control := quietServer(FederationConfig{})
	defer control.Close()
	controlTS := httptest.NewServer(control.Handler())
	defer controlTS.Close()
	declareTable(t, control)

	// Three edges, every stream declared on each.
	edges := make([]*Server, 3)
	edgeTS := make([]*httptest.Server, 3)
	for i := range edges {
		edges[i] = quietServer(FederationConfig{})
		declareTable(t, edges[i])
		edgeTS[i] = httptest.NewServer(edges[i].Handler())
		defer edgeTS[i].Close()
	}
	edgeNames := []string{"edge-0", "edge-1", "edge-2"}

	// Seeded synthetic clients: every report goes to exactly one edge and
	// to the control collector.
	for si, fs := range fedTable() {
		rng := randx.New(uint64(100 + si))
		reports := fs.wireReports(rng, 3*perEdge)
		for i := 0; i < 3; i++ {
			slice := reports[i*perEdge : (i+1)*perEdge]
			postWireBatch(t, edgeTS[i].URL, fs.name, slice)
			postWireBatch(t, controlTS.URL, fs.name, slice)
		}
	}

	// Edge 0 and 2 push normally.
	for _, i := range []int{0, 2} {
		if err := edges[i].EnablePush(PushOptions{URL: rootTS.URL, Edge: edgeNames[i], Interval: time.Hour,
			Binary: edgeBinary[i]}); err != nil {
			t.Fatal(err)
		}
		if acked, err := edges[i].PushNow(); err != nil || !acked {
			t.Fatalf("edge %d push: acked=%v err=%v", i, acked, err)
		}
	}

	// Edge 1 is killed mid-push: the root applies its delta but the ack is
	// lost, and the process dies before hearing it. Its snapshot — written
	// ahead of the transmission — carries the frozen pending payload.
	snapPath := filepath.Join(dir, "edge1.snap")
	drop := &dropResponseTransport{inner: http.DefaultTransport, drops: 1}
	if err := edges[1].EnablePush(PushOptions{
		URL: rootTS.URL, Edge: edgeNames[1], Interval: time.Hour, Binary: edgeBinary[1],
		HTTPClient: &http.Client{Transport: drop},
		Persist:    func() error { return edges[1].SaveSnapshot(snapPath) },
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := edges[1].PushNow(); err == nil {
		t.Fatal("edge 1 push should have lost its response")
	}
	rootAfterCrash := root.StreamN(fedTable()[0].name)
	edges[1].Close() // the edge dies without ever folding the ack

	// Restart edge 1 from its snapshot: the frozen payload replays
	// verbatim, the root proves it a duplicate, and nothing double-counts.
	edge1b := quietServer(FederationConfig{})
	defer edge1b.Close()
	declareTable(t, edge1b)
	if err := edge1b.LoadSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	if err := edge1b.EnablePush(PushOptions{URL: rootTS.URL, Edge: edgeNames[1], Interval: time.Hour,
		Binary: restartBinary}); err != nil {
		t.Fatal(err)
	}
	edge1bTS := httptest.NewServer(edge1b.Handler())
	defer edge1bTS.Close()
	if acked, err := edge1b.PushNow(); err != nil || !acked {
		t.Fatalf("restarted edge replay: acked=%v err=%v", acked, err)
	}
	if got := root.StreamN(fedTable()[0].name); got != rootAfterCrash {
		t.Fatalf("replay changed the root: %d != %d", got, rootAfterCrash)
	}

	// Life goes on: the restarted edge collects more reports and ships
	// them under the next sequence.
	for si, fs := range fedTable() {
		rng := randx.New(uint64(900 + si))
		reports := fs.wireReports(rng, extra)
		postWireBatch(t, edge1bTS.URL, fs.name, reports)
		postWireBatch(t, controlTS.URL, fs.name, reports)
	}
	if acked, err := edge1b.PushNow(); err != nil || !acked {
		t.Fatalf("post-restart push: acked=%v err=%v", acked, err)
	}

	// The root's histograms equal the control's exactly, stream by stream.
	rootSnap := filepath.Join(dir, "root.snap")
	controlSnap := filepath.Join(dir, "control.snap")
	if err := root.SaveSnapshot(rootSnap); err != nil {
		t.Fatal(err)
	}
	if err := control.SaveSnapshot(controlSnap); err != nil {
		t.Fatal(err)
	}
	rootCounts := snapshotCounts(t, rootSnap)
	controlCounts := snapshotCounts(t, controlSnap)
	for _, fs := range fedTable() {
		rc, cc := rootCounts[fs.name], controlCounts[fs.name]
		if len(rc) == 0 || len(rc) != len(cc) {
			t.Fatalf("stream %s: histogram shapes %d vs %d", fs.name, len(rc), len(cc))
		}
		for b := range rc {
			if rc[b] != cc[b] {
				t.Fatalf("stream %s bucket %d: root %d != control %d (federation is not exact)",
					fs.name, b, rc[b], cc[b])
			}
		}
	}

	// Bit-identical serving: both histograms restored into fresh servers
	// compute the same cold reconstruction through the whole serving stack.
	rootStripped := filepath.Join(dir, "root-cold.snap")
	controlStripped := filepath.Join(dir, "control-cold.snap")
	stripEstimates(t, rootSnap, rootStripped)
	stripEstimates(t, controlSnap, controlStripped)
	fresh := func(path string) (*Server, *httptest.Server) {
		s := NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: 50 * time.Millisecond})
		if err := s.LoadSnapshot(path); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		return s, ts
	}
	rootFresh, rootFreshTS := fresh(rootStripped)
	defer rootFresh.Close()
	defer rootFreshTS.Close()
	controlFresh, controlFreshTS := fresh(controlStripped)
	defer controlFresh.Close()
	defer controlFreshTS.Close()
	wantUsers := 3*perEdge + extra
	for _, fs := range fedTable() {
		re := getFreshStreamEstimate(t, rootFreshTS.URL, fs.name, wantUsers)
		ce := getFreshStreamEstimate(t, controlFreshTS.URL, fs.name, wantUsers)
		if re.N != wantUsers || ce.N != wantUsers {
			t.Fatalf("stream %s: root N=%d control N=%d want %d", fs.name, re.N, ce.N, wantUsers)
		}
		if len(re.Distribution) != len(ce.Distribution) {
			t.Fatalf("stream %s: distribution shapes differ", fs.name)
		}
		for b := range re.Distribution {
			if re.Distribution[b] != ce.Distribution[b] {
				t.Fatalf("stream %s bucket %d: %v != %v (served estimates not bit-identical)",
					fs.name, b, re.Distribution[b], ce.Distribution[b])
			}
		}
	}

	// The peers endpoint accounts for all three edges.
	peers := root.Peers()
	if len(peers) != 3 {
		t.Fatalf("root knows %d peers, want 3", len(peers))
	}
	wantSeq := map[string]int64{"edge-0": 1, "edge-1": 2, "edge-2": 1}
	for _, p := range peers {
		if p.LastSeq != wantSeq[p.Edge] {
			t.Errorf("peer %s last_seq %d, want %d", p.Edge, p.LastSeq, wantSeq[p.Edge])
		}
		if p.Dropped != 0 {
			t.Errorf("peer %s dropped %d increments", p.Edge, p.Dropped)
		}
	}
}

func TestFederationWindowedLockstep(t *testing.T) {
	// A windowed stream federates epoch-exactly when edge and root share an
	// epoch origin: both servers run on one mock clock, and the edge's
	// sealed-epoch deltas land in the root's matching sealed epochs even
	// when they arrive after the root rotated.
	dir := t.TempDir()
	clock := newMockClock()
	mk := func(fed FederationConfig) *Server {
		s := NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: 5 * time.Millisecond,
			Clock: clock.Now, Federation: fed})
		t.Cleanup(s.Close)
		if err := s.CreateStream("lat", StreamConfig{Epsilon: 1, Buckets: 32,
			Epoch: Duration(time.Minute), Retain: 6}); err != nil {
			t.Fatal(err)
		}
		return s
	}
	root := mk(FederationConfig{Accept: true})
	rootTS := httptest.NewServer(root.Handler())
	t.Cleanup(rootTS.Close)
	edge := mk(FederationConfig{})
	edgeTS := httptest.NewServer(edge.Handler())
	t.Cleanup(edgeTS.Close)
	control := mk(FederationConfig{})
	controlTS := httptest.NewServer(control.Handler())
	t.Cleanup(controlTS.Close)
	if err := edge.EnablePush(PushOptions{URL: rootTS.URL, Edge: "win-edge", Interval: time.Hour}); err != nil {
		t.Fatal(err)
	}

	send := func(seed uint64, n int) {
		postReports(t, edgeTS.URL, "lat", seed, n)
		postReports(t, controlTS.URL, "lat", seed, n)
	}

	// Epoch 0: collect, and ship while live.
	send(21, 300)
	if acked, err := edge.PushNow(); err != nil || !acked {
		t.Fatalf("epoch-0 push: acked=%v err=%v", acked, err)
	}
	// Epoch 0 keeps growing after the push; these increments ship later,
	// after the epoch has sealed on both sides.
	send(22, 200)

	clock.Advance(time.Minute)
	waitRotation(t, edge, "lat", 1)
	waitRotation(t, root, "lat", 1)
	waitRotation(t, control, "lat", 1)

	// Epoch 1: collect, then ship — the payload carries the sealed tail of
	// epoch 0 plus the live epoch 1, each keyed by its index.
	send(23, 250)
	if acked, err := edge.PushNow(); err != nil || !acked {
		t.Fatalf("epoch-1 push: acked=%v err=%v", acked, err)
	}

	// Per-epoch exactness: sealed epoch 0 and live epoch 1 agree between
	// root and control.
	rootSnap := filepath.Join(dir, "root.snap")
	controlSnap := filepath.Join(dir, "control.snap")
	if err := root.SaveSnapshot(rootSnap); err != nil {
		t.Fatal(err)
	}
	if err := control.SaveSnapshot(controlSnap); err != nil {
		t.Fatal(err)
	}
	loadRec := func(path string) snapshot.Stream {
		for _, rec := range loadRecords(t, path) {
			if rec.Name == "lat" {
				return rec
			}
		}
		t.Fatal("lat record missing")
		return snapshot.Stream{}
	}
	rr, cr := loadRec(rootSnap), loadRec(controlSnap)
	if rr.Window == nil || cr.Window == nil || len(rr.Window.Sealed) != len(cr.Window.Sealed) {
		t.Fatalf("window blocks differ: %+v vs %+v", rr.Window, cr.Window)
	}
	for i := range rr.Window.Sealed {
		rs, cs := rr.Window.Sealed[i], cr.Window.Sealed[i]
		if rs.Index != cs.Index || rs.N != cs.N {
			t.Fatalf("sealed epoch %d: root n=%d control n=%d", rs.Index, rs.N, cs.N)
		}
		for b := range rs.Counts {
			if rs.Counts[b] != cs.Counts[b] {
				t.Fatalf("sealed epoch %d bucket %d: %d != %d", rs.Index, b, rs.Counts[b], cs.Counts[b])
			}
		}
	}
	for b := range rr.Counts {
		if rr.Counts[b] != cr.Counts[b] {
			t.Fatalf("live epoch bucket %d: %d != %d", b, rr.Counts[b], cr.Counts[b])
		}
	}

	// Served window estimates over the sealed epoch are bit-identical from
	// cold restores.
	rootStripped := filepath.Join(dir, "root-cold.snap")
	controlStripped := filepath.Join(dir, "control-cold.snap")
	stripEstimates(t, rootSnap, rootStripped)
	stripEstimates(t, controlSnap, controlStripped)
	freshWin := func(path string) *httptest.Server {
		clock2 := newMockClock()
		s := NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: 20 * time.Millisecond, Clock: clock2.Now})
		t.Cleanup(s.Close)
		if err := s.CreateStream("lat", StreamConfig{Epsilon: 1, Buckets: 32,
			Epoch: Duration(time.Minute), Retain: 6}); err != nil {
			t.Fatal(err)
		}
		if err := s.LoadSnapshot(path); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return ts
	}
	rootFresh := freshWin(rootStripped)
	controlFresh := freshWin(controlStripped)
	re := getWindowEstimate(t, rootFresh.URL, "lat", "epochs:0..0", 500)
	ce := getWindowEstimate(t, controlFresh.URL, "lat", "epochs:0..0", 500)
	if re.N != 500 || ce.N != 500 {
		t.Fatalf("window N: root %d control %d want 500", re.N, ce.N)
	}
	for b := range re.Distribution {
		if re.Distribution[b] != ce.Distribution[b] {
			t.Fatalf("window bucket %d: %v != %v", b, re.Distribution[b], ce.Distribution[b])
		}
	}
}

func TestStressFederation(t *testing.T) {
	// Race detector workout: two live edges pushing on a tight interval
	// while clients ingest into them, the root serves queries and rotates a
	// windowed stream, and snapshots fire on both tiers. Exactness is
	// asserted for the plain stream after a final drain.
	if testing.Short() {
		t.Skip("federation stress in -short mode")
	}
	dir := t.TempDir()
	root := NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: 3 * time.Millisecond,
		Federation: FederationConfig{Accept: true, AutoDeclare: true}})
	defer root.Close()
	rootTS := httptest.NewServer(root.Handler())
	defer rootTS.Close()

	const edgesN = 2
	var edges [edgesN]*Server
	var edgeURLs [edgesN]string
	for i := 0; i < edgesN; i++ {
		edges[i] = NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: 3 * time.Millisecond})
		defer edges[i].Close()
		if err := edges[i].CreateStream("plain", StreamConfig{Epsilon: 1, Buckets: 32}); err != nil {
			t.Fatal(err)
		}
		// Each edge gets its own windowed stream: real-clock processes have
		// distinct epoch origins, so a shared windowed stream would be a
		// fingerprint conflict by design — the root auto-declares each one
		// aligned to its edge's origin.
		if err := edges[i].CreateStream(fmt.Sprintf("win-%d", i), StreamConfig{Epsilon: 1, Buckets: 32,
			Epoch: Duration(40 * time.Millisecond), Retain: 64}); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(edges[i].Handler())
		defer ts.Close()
		edgeURLs[i] = ts.URL
		if err := edges[i].EnablePush(PushOptions{
			URL: rootTS.URL, Edge: []string{"stress-a", "stress-b"}[i], Interval: 4 * time.Millisecond,
		}); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var ingested [edgesN]atomic.Int64
	// Ingestion: 2 writers per edge.
	for i := 0; i < edgesN; i++ {
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(i, w int) {
				defer wg.Done()
				client := core.NewClient(core.Config{Epsilon: 1, Buckets: 32, Smoothing: true})
				rng := randx.New(uint64(1000 + 10*i + w))
				for n := 0; ; n++ {
					select {
					case <-stop:
						return
					default:
					}
					stream := "plain"
					if n%3 == 0 {
						stream = fmt.Sprintf("win-%d", i)
					}
					blob, _ := json.Marshal(map[string]any{
						"stream": stream, "report": client.Report(rng.Beta(5, 2), rng),
					})
					resp, err := http.Post(edgeURLs[i]+streamPath(stream)+"/report", "application/json", bytes.NewReader(blob))
					if err == nil {
						resp.Body.Close()
						if stream == "plain" && resp.StatusCode == http.StatusOK {
							// Only count what the server acknowledged.
							ingested[i].Add(1)
						}
					}
				}
			}(i, w)
		}
	}
	// Root-side query pollers (tolerate 409/503 while data races in).
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(rootTS.URL + "/v1/streams/plain/estimate")
				if err == nil {
					resp.Body.Close()
				}
				resp, err = http.Get(rootTS.URL + "/federation/peers")
				if err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	// Snapshot churn on the root and one edge.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			root.SaveSnapshot(filepath.Join(dir, "root.snap"))
			edges[0].SaveSnapshot(filepath.Join(dir, "edge0.snap"))
			time.Sleep(3 * time.Millisecond)
		}
	}()

	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Drain: push until every edge has nothing left to ship.
	var want int64
	for i := 0; i < edgesN; i++ {
		want += ingested[i].Load()
		deadline := time.Now().Add(10 * time.Second)
		for {
			acked, err := edges[i].PushNow()
			if err == nil && !acked {
				break // nothing left
			}
			if time.Now().After(deadline) {
				t.Fatalf("edge %d never drained: acked=%v err=%v", i, acked, err)
			}
		}
	}
	if got := int64(root.StreamN("plain")); got != want {
		t.Fatalf("root plain stream has %d reports, edges ingested %d", got, want)
	}
}
