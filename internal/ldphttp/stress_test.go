package ldphttp

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
)

// TestStressConcurrentIngestionWithEstimates hammers POST /report and
// POST /batch from many goroutines while other goroutines poll GET
// /estimate, then asserts that not a single report was lost and that the
// estimate catches up to the full population. Run with -race: every handler
// path, the striped accumulator and the background estimation engine are
// exercised concurrently.
func TestStressConcurrentIngestionWithEstimates(t *testing.T) {
	s := NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: 5 * time.Millisecond})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	const (
		reporters   = 6
		perReporter = 120
		batchers    = 4
		batches     = 8
		batchSize   = 50
		pollers     = 3
	)
	wantN := reporters*perReporter + batchers*batches*batchSize

	var (
		wg       sync.WaitGroup
		ingested atomic.Int64
		errs     = make(chan error, reporters+batchers+pollers)
	)

	for w := 0; w < reporters; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			client := core.NewClient(core.Config{Epsilon: 1, Buckets: 32, Smoothing: true})
			rng := randx.New(uint64(id + 1))
			for i := 0; i < perReporter; i++ {
				blob, _ := json.Marshal(map[string]float64{"report": client.Report(rng.Beta(5, 2), rng)})
				resp, err := http.Post(ts.URL+"/v1/streams/default/report", "application/json", bytes.NewReader(blob))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("report status %d", resp.StatusCode)
					return
				}
				ingested.Add(1)
			}
		}(w)
	}

	for w := 0; w < batchers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			client := core.NewClient(core.Config{Epsilon: 1, Buckets: 32, Smoothing: true})
			rng := randx.New(uint64(100 + id))
			for bi := 0; bi < batches; bi++ {
				reports := make([]float64, batchSize)
				for i := range reports {
					reports[i] = client.Report(rng.Beta(5, 2), rng)
				}
				blob, _ := json.Marshal(map[string]any{"reports": reports})
				resp, err := http.Post(ts.URL+"/v1/streams/default/batch", "application/json", bytes.NewReader(blob))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("batch status %d", resp.StatusCode)
					return
				}
				ingested.Add(batchSize)
			}
		}(w)
	}

	stopPolling := make(chan struct{})
	var pollWG sync.WaitGroup
	for w := 0; w < pollers; w++ {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			for {
				select {
				case <-stopPolling:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/v1/streams/default/estimate")
				if err != nil {
					errs <- err
					return
				}
				var est EstimateResponse
				decErr := json.NewDecoder(resp.Body).Decode(&est)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					if decErr != nil {
						errs <- decErr
						return
					}
					// A served estimate must never cover more reports
					// than have finished ingesting at read time...
					if est.N > wantN {
						errs <- fmt.Errorf("estimate N=%d exceeds population %d", est.N, wantN)
						return
					}
					// ...and must always be a full-granularity simplex
					// point.
					if len(est.Distribution) != 32 {
						errs <- fmt.Errorf("estimate has %d buckets", len(est.Distribution))
						return
					}
				case http.StatusConflict, http.StatusServiceUnavailable:
					// No reports yet / first estimate pending — legal
					// early on; the server answered instead of blocking.
				default:
					errs <- fmt.Errorf("estimate status %d", resp.StatusCode)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	wg.Wait()
	close(stopPolling)
	pollWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := s.N(); got != wantN {
		t.Fatalf("reports lost: N = %d, want %d", got, wantN)
	}
	est := getFreshEstimate(t, ts.URL, wantN)
	if !est.WarmStart && est.Iterations == 0 {
		t.Error("final estimate looks uncomputed")
	}
	var sum float64
	for _, p := range est.Distribution {
		if p < 0 {
			t.Fatalf("negative probability %v", p)
		}
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("distribution sums to %v", sum)
	}
}

// TestStressMultiStreamSnapshotQuery exercises the full new surface under
// -race at once: concurrent ingestion into multiple named streams, /query
// pollers reading cached estimates, periodic SaveSnapshot of the live
// server, and stream declaration racing with everything else. Asserts no
// report is lost on any stream and a concurrent snapshot restores into a
// fresh server with every stream intact.
func TestStressMultiStreamSnapshotQuery(t *testing.T) {
	s := NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: 5 * time.Millisecond})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	streams := []string{"age", "income", "sessions"}
	for _, name := range streams {
		if err := s.CreateStream(name, StreamConfig{Epsilon: 1, Buckets: 32}); err != nil {
			t.Fatal(err)
		}
	}

	const (
		perStreamWriters = 2
		batchesPerWriter = 6
		batchSize        = 40
		queryPollers     = 2
		snapshotters     = 2
		snapshotSaves    = 5
	)
	wantPerStream := perStreamWriters * batchesPerWriter * batchSize
	snapPath := filepath.Join(t.TempDir(), "stress.snap")

	var wg sync.WaitGroup
	errs := make(chan error, len(streams)*perStreamWriters+queryPollers+snapshotters+2)

	// Writers: every stream gets its own concurrent batchers.
	for si, name := range streams {
		for w := 0; w < perStreamWriters; w++ {
			wg.Add(1)
			go func(stream string, seed uint64) {
				defer wg.Done()
				client := core.NewClient(core.Config{Epsilon: 1, Buckets: 32, Smoothing: true})
				rng := randx.New(seed)
				for b := 0; b < batchesPerWriter; b++ {
					reports := make([]float64, batchSize)
					for i := range reports {
						reports[i] = client.Report(rng.Beta(5, 2), rng)
					}
					blob, _ := json.Marshal(map[string]any{"stream": stream, "reports": reports})
					resp, err := http.Post(ts.URL+streamPath(stream)+"/batch", "application/json", bytes.NewReader(blob))
					if err != nil {
						errs <- err
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("batch to %s status %d", stream, resp.StatusCode)
						return
					}
				}
			}(name, uint64(si*100+w+1))
		}
	}

	stop := make(chan struct{})
	var bgWG sync.WaitGroup

	// Query pollers: rotate through streams and query types against the
	// cached estimates.
	for w := 0; w < queryPollers; w++ {
		bgWG.Add(1)
		go func(id int) {
			defer bgWG.Done()
			paths := []string{
				"/query?type=quantile&q=0.5,0.9",
				"/query?type=cdf&q=0.25,0.75",
				"/query?type=range&lo=0.2&hi=0.8",
				"/query?type=mean",
				"/query?type=topk&k=3",
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				stream := streams[i%len(streams)]
				resp, err := http.Get(ts.URL + streamPath(stream) + paths[i%len(paths)])
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK, http.StatusConflict, http.StatusServiceUnavailable:
				default:
					errs <- fmt.Errorf("query on %s status %d", stream, resp.StatusCode)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(w)
	}

	// Snapshotters: persist the live server repeatedly while it ingests.
	for w := 0; w < snapshotters; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			path := fmt.Sprintf("%s.%d", snapPath, id)
			for i := 0; i < snapshotSaves; i++ {
				if err := s.SaveSnapshot(path); err != nil {
					errs <- fmt.Errorf("snapshot %d: %w", i, err)
					return
				}
				time.Sleep(3 * time.Millisecond)
			}
		}(w)
	}

	// One goroutine races stream declarations with the traffic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			blob, _ := json.Marshal(map[string]any{
				"name": fmt.Sprintf("late-%d", i), "epsilon": 1.0, "buckets": 16})
			resp, err := http.Post(ts.URL+"/v1/streams", "application/json", bytes.NewReader(blob))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("late stream create status %d", resp.StatusCode)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	wg.Wait()
	close(stop)
	bgWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for _, name := range streams {
		if n := s.StreamN(name); n != wantPerStream {
			t.Errorf("stream %s lost reports: N = %d, want %d", name, n, wantPerStream)
		}
		est := getFreshStreamEstimate(t, ts.URL, name, wantPerStream)
		if len(est.Distribution) != 32 {
			t.Errorf("stream %s estimate has %d buckets", name, len(est.Distribution))
		}
	}

	// A final snapshot of the fully-ingested server restores into a fresh
	// one with every stream and count intact.
	if err := s.SaveSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	s2 := NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: 5 * time.Millisecond})
	t.Cleanup(s2.Close)
	if err := s2.LoadSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	for _, name := range streams {
		if n := s2.StreamN(name); n != wantPerStream {
			t.Errorf("restored stream %s N = %d, want %d", name, n, wantPerStream)
		}
	}
	if got, want := len(s2.Streams()), len(s.Streams()); got != want {
		t.Errorf("restored server has %d streams, want %d", got, want)
	}
}

// TestStressWindowRotation races epoch rotation against everything at once
// on a windowed stream: concurrent batch ingestion, window-query pollers
// cycling through selectors, live SaveSnapshot, and a mock clock advancing
// every few milliseconds so the engine rotates continuously. Run with
// -race. Retention exceeds the rotation count, so at the end not a single
// report may have been lost across all the epoch seals.
func TestStressWindowRotation(t *testing.T) {
	clock := newMockClock()
	s := NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: time.Millisecond, Clock: clock.Now})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	const (
		rotations        = 12
		writers          = 4
		batchesPerWriter = 10
		batchSize        = 50
		pollers          = 2
	)
	if err := s.CreateStream("win", StreamConfig{
		Epsilon: 1, Buckets: 32, Epoch: Duration(time.Minute), Retain: rotations + 2,
	}); err != nil {
		t.Fatal(err)
	}
	wantN := writers * batchesPerWriter * batchSize
	snapPath := filepath.Join(t.TempDir(), "winstress.snap")

	var wg sync.WaitGroup
	errs := make(chan error, writers+pollers+2)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			client := core.NewClient(core.Config{Epsilon: 1, Buckets: 32, Smoothing: true})
			rng := randx.New(uint64(id + 1))
			for b := 0; b < batchesPerWriter; b++ {
				reports := make([]float64, batchSize)
				for i := range reports {
					reports[i] = client.Report(rng.Beta(5, 2), rng)
				}
				blob, _ := json.Marshal(map[string]any{"stream": "win", "reports": reports})
				resp, err := http.Post(ts.URL+"/v1/streams/win/batch", "application/json", bytes.NewReader(blob))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("batch status %d", resp.StatusCode)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(w)
	}

	stop := make(chan struct{})
	var bgWG sync.WaitGroup
	for w := 0; w < pollers; w++ {
		bgWG.Add(1)
		go func(id int) {
			defer bgWG.Done()
			selectors := []string{"last:1", "last:3", "last:100", "epochs:0..0"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/v1/streams/win/estimate?window=" + selectors[i%len(selectors)])
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK, http.StatusConflict, http.StatusServiceUnavailable, http.StatusGone:
					// All legal while rotation races the poll.
				default:
					errs <- fmt.Errorf("window poll status %d", resp.StatusCode)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(w)
	}

	// Snapshotter: persist the rotating server while it ingests.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if err := s.SaveSnapshot(snapPath); err != nil {
				errs <- fmt.Errorf("snapshot %d: %w", i, err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// The clock: one rotation every few milliseconds of real time.
	for r := 0; r < rotations; r++ {
		clock.Advance(time.Minute)
		s.wake()
		time.Sleep(4 * time.Millisecond)
	}

	wg.Wait()
	close(stop)
	bgWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := s.StreamN("win"); got != wantN {
		t.Fatalf("reports lost across rotations: N = %d, want %d", got, wantN)
	}
	// The final full-window estimate covers the whole population.
	est := getFreshStreamEstimate(t, ts.URL, "win", wantN)
	if len(est.Distribution) != 32 {
		t.Fatalf("estimate has %d buckets", len(est.Distribution))
	}
	// And a final snapshot restores with every retained epoch intact.
	if err := s.SaveSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	s2 := NewServer(Config{Epsilon: 1, Buckets: 32, RefreshInterval: time.Hour, Clock: clock.Now})
	t.Cleanup(s2.Close)
	if err := s2.LoadSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	if got := s2.StreamN("win"); got != wantN {
		t.Fatalf("restored windowed stream N = %d, want %d", got, wantN)
	}
}

// TestStressRefreshPoolConcurrency drives the concurrent refresh scheduler
// with everything that can race it at once: many streams refreshed by a
// multi-worker pool, concurrent batch ingestion, epoch rotation on a mock
// clock, federation pushes absorbing into a dedicated stream (the forced
// refresh path), live SaveSnapshot, and estimate pollers reading published
// snapshots. Run with -race: the per-stream busy serialization, the queue,
// and the copy-on-publish contract are all on trial here.
func TestStressRefreshPoolConcurrency(t *testing.T) {
	clock := newMockClock()
	s := NewServer(Config{
		Epsilon: 1, Buckets: 32,
		RefreshInterval: 2 * time.Millisecond,
		RefreshWorkers:  4,
		Clock:           clock.Now,
		Federation:      FederationConfig{Accept: true},
	})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	plain := []string{"s0", "s1", "s2", "s3", "s4"}
	for _, name := range plain {
		if err := s.CreateStream(name, StreamConfig{Epsilon: 1, Buckets: 32}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CreateStream("win", StreamConfig{
		Epsilon: 1, Buckets: 32, Epoch: Duration(time.Minute), Retain: 16,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateStream("fed", StreamConfig{Epsilon: 1, Buckets: 32}); err != nil {
		t.Fatal(err)
	}

	const (
		writersPerStream = 2
		batchesPerWriter = 5
		batchSize        = 40
		pushes           = 10
		perPush          = 8
		rotations        = 8
	)
	ingestStreams := append(append([]string(nil), plain...), "win")
	wantPerStream := writersPerStream * batchesPerWriter * batchSize

	var wg sync.WaitGroup
	errs := make(chan error, len(ingestStreams)*writersPerStream+8)

	for si, name := range ingestStreams {
		for w := 0; w < writersPerStream; w++ {
			wg.Add(1)
			go func(stream string, seed uint64) {
				defer wg.Done()
				client := core.NewClient(core.Config{Epsilon: 1, Buckets: 32, Smoothing: true})
				rng := randx.New(seed)
				for b := 0; b < batchesPerWriter; b++ {
					reports := make([]float64, batchSize)
					for i := range reports {
						reports[i] = client.Report(rng.Beta(5, 2), rng)
					}
					blob, _ := json.Marshal(map[string]any{"stream": stream, "reports": reports})
					resp, err := http.Post(ts.URL+streamPath(stream)+"/batch", "application/json", bytes.NewReader(blob))
					if err != nil {
						errs <- err
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("batch to %s status %d", stream, resp.StatusCode)
						return
					}
					time.Sleep(time.Millisecond)
				}
			}(name, uint64(si*37+w+1))
		}
	}

	// Federation edge: sequential seq numbers, each push absorbing counts
	// into the fed stream and forcing its next refresh.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seq := int64(1); seq <= pushes; seq++ {
			counts := make([]uint64, 32)
			for i := 0; i < perPush; i++ {
				counts[(int(seq)*7+i*5)%32]++
			}
			body := encodePush(t, s, "edge-1", seq, "fed", 0, counts)
			if _, status := pushBody(t, ts.URL, body); status != http.StatusOK {
				errs <- fmt.Errorf("push seq %d status %d", seq, status)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Snapshotter against the live, concurrently-refreshing server.
	snapPath := filepath.Join(t.TempDir(), "pool.snap")
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := s.SaveSnapshot(snapPath); err != nil {
				errs <- fmt.Errorf("snapshot %d: %w", i, err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Estimate pollers across all streams.
	stop := make(chan struct{})
	var bgWG sync.WaitGroup
	for w := 0; w < 3; w++ {
		bgWG.Add(1)
		go func(id int) {
			defer bgWG.Done()
			all := append(append([]string(nil), ingestStreams...), "fed")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + streamPath(all[(i+id)%len(all)]) + "/estimate")
				if err != nil {
					errs <- err
					return
				}
				var est EstimateResponse
				decErr := json.NewDecoder(resp.Body).Decode(&est)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					if decErr != nil {
						errs <- decErr
						return
					}
					if len(est.Distribution) != 32 {
						errs <- fmt.Errorf("estimate has %d buckets", len(est.Distribution))
						return
					}
					var sum float64
					for _, p := range est.Distribution {
						if p < 0 {
							errs <- fmt.Errorf("negative probability %v in published estimate", p)
							return
						}
						sum += p
					}
					if sum < 0.999 || sum > 1.001 {
						errs <- fmt.Errorf("published distribution sums to %v", sum)
						return
					}
				case http.StatusConflict, http.StatusServiceUnavailable:
				default:
					errs <- fmt.Errorf("estimate status %d", resp.StatusCode)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(w)
	}

	// The clock: rotate the windowed stream while everything else runs.
	for r := 0; r < rotations; r++ {
		clock.Advance(time.Minute)
		s.wake()
		time.Sleep(3 * time.Millisecond)
	}

	wg.Wait()
	close(stop)
	bgWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for _, name := range ingestStreams {
		if n := s.StreamN(name); n != wantPerStream {
			t.Errorf("stream %s lost reports: N = %d, want %d", name, n, wantPerStream)
		}
	}
	if n := s.StreamN("fed"); n != pushes*perPush {
		t.Errorf("fed stream N = %d, want %d", n, pushes*perPush)
	}
	for _, name := range ingestStreams {
		est := getFreshStreamEstimate(t, ts.URL, name, wantPerStream)
		if len(est.Distribution) != 32 {
			t.Errorf("stream %s estimate has %d buckets", name, len(est.Distribution))
		}
	}
	est := getFreshStreamEstimate(t, ts.URL, "fed", pushes*perPush)
	if est.Iterations == 0 {
		t.Error("fed estimate looks uncomputed")
	}
}
