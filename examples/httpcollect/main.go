// HTTP collection: runs the full client/server deployment shape on
// localhost — an aggregation server exposing the default stream's
// /v1/streams/default/{batch,estimate,query} endpoints, and a fleet of
// concurrent clients that randomize on-device and POST their reports,
// exactly how the deployed LDP systems the paper cites (RAPPOR, Apple,
// Microsoft telemetry) are structured. Any unexpected answer stops the
// example with the collector's error envelope.
//
//	go run ./examples/httpcollect
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ldphttp"
	"repro/internal/randx"
)

func main() {
	cfg := ldphttp.Config{Epsilon: 1.0, Buckets: 128}

	// --- server ------------------------------------------------------------
	srv := ldphttp.NewServer(cfg)
	defer srv.Close() // stop the background estimation engine
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		if err := http.Serve(ln, srv.Handler()); err != nil && err != http.ErrServerClosed {
			log.Print(err)
		}
	}()
	base := "http://" + ln.Addr().String()
	stream := base + "/v1/streams/" + ldphttp.DefaultStream
	fmt.Printf("collector listening on %s (epsilon=%.1f)\n", base, cfg.Epsilon)

	// --- clients -----------------------------------------------------------
	// 16 concurrent client shards, 2500 users each; every user randomizes
	// a Beta(5,2)-distributed private value locally before anything is
	// sent over the wire.
	const shards = 16
	const perShard = 2500
	var wg sync.WaitGroup
	for sh := 0; sh < shards; sh++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			client := core.NewClient(core.Config{
				Epsilon: cfg.Epsilon, Buckets: cfg.Buckets, Smoothing: true,
			})
			rng := randx.New(uint64(id + 1))
			reports := make([]float64, perShard)
			for i := range reports {
				private := rng.Beta(5, 2)                // never leaves this goroutine
				reports[i] = client.Report(private, rng) // ε-LDP randomized
			}
			blob, _ := json.Marshal(map[string]any{"reports": reports})
			resp, err := http.Post(stream+"/batch", "application/json", bytes.NewReader(blob))
			if err != nil {
				log.Fatal(err)
			}
			expect(resp, http.StatusOK)
			resp.Body.Close()
		}(sh)
	}
	wg.Wait()
	fmt.Printf("ingested %d reports from %d client shards\n", srv.N(), shards)

	// --- anyone can query the aggregate -------------------------------------
	// .../estimate serves the background engine's cached reconstruction;
	// poll until it has caught up with every report we just ingested. 503
	// (first reconstruction pending) and 409 (no reports yet) mean "retry".
	var est ldphttp.EstimateResponse
	deadline := time.Now().Add(30 * time.Second)
	for est.N != srv.N() {
		if time.Now().After(deadline) {
			log.Fatalf("estimate never covered %d reports (last N=%d)", srv.N(), est.N)
		}
		time.Sleep(50 * time.Millisecond)
		resp, err := http.Get(stream + "/estimate")
		if err != nil {
			log.Fatal(err)
		}
		if resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusConflict {
			resp.Body.Close()
			continue
		}
		expect(resp, http.StatusOK)
		err = json.NewDecoder(resp.Body).Decode(&est)
		resp.Body.Close()
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("reconstruction: %d EM iterations (converged=%v, warm_start=%v)\n",
		est.Iterations, est.Converged, est.WarmStart)
	fmt.Printf("  estimated mean:     %.4f (Beta(5,2) truth 0.7143)\n", est.Mean)
	fmt.Printf("  estimated median:   %.4f (truth 0.7356)\n", est.Median)
	fmt.Printf("  estimated variance: %.4f (truth 0.0255)\n", est.Variance)

	// --- and the analytics layer --------------------------------------------
	// GET .../query evaluates range/CDF/quantile/top-k analytics against the
	// same cached reconstruction.
	resp, err := http.Get(stream + "/query?type=quantile&q=0.1,0.5,0.9")
	if err != nil {
		log.Fatal(err)
	}
	expect(resp, http.StatusOK)
	var q ldphttp.QueryResponse
	err = json.NewDecoder(resp.Body).Decode(&q)
	resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  served quantiles:   q10=%.4f q50=%.4f q90=%.4f (truths 0.4577, 0.7356, 0.9274)\n",
		q.Values[0], q.Values[1], q.Values[2])
}

// expect stops the example unless the collector answered want.
func expect(resp *http.Response, want int) {
	if resp.StatusCode != want {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		log.Fatalf("%s %s: status %d, want %d: %s",
			resp.Request.Method, resp.Request.URL, resp.StatusCode, want, body)
	}
}
