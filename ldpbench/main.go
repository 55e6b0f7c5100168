// Command ldpbench is the collector's end-to-end benchmark. One run builds a
// workload's topology of in-process collectors (ldphttp.NewServer) behind
// loopback listeners, drives seeded synthetic clients through the shipped
// repro.Reporter, checks every output, and prints the workload's end-to-end
// metrics, or with --trace 1 its per-layer attribution. README.md gives the
// workloads, the reasons for them, and the definition of every metric.
//
// Run it from the repository root; run.sh builds it from source first:
//
//	bash ldpbench/run.sh --workload federation --seed 7 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed output check exits 1
// without printing it.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "workload seed; every dataset and Reporter seed derives from it")
	seconds := flag.Float64("seconds", 30, "length of the timed phase in seconds")
	traced := flag.Int("trace", 0, "0 measures the end-to-end metrics; 1 runs the traced per-layer attribution")
	out := flag.String("out", ".bench_build/ldpbench", "directory for span dumps and the run's scratch files")
	flag.Parse()
	w := lookupWorkload(*name)
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: ldpbench --workload %s [--seed N] [--seconds S] [--trace 0|1]\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, out: *out,
		dir: filepath.Join(*out, fmt.Sprintf("run-%d", os.Getpid()))}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "ldpbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(cfg.dir)
	fmt.Println("provenance", provenance(w.name, cfg, *traced))
	var res *result
	var err error
	if *traced == 1 {
		res, err = runTraced(w, cfg)
	} else {
		res, err = runPlain(w, cfg)
	}
	if err == nil {
		err = res.write(os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ldpbench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

// provenance is the line every result carries: what ran, on what, and the
// command that runs it again.
func provenance(workload string, cfg runConfig, traced int) string {
	commit := os.Getenv("LDPBENCH_COMMIT")
	if commit == "" {
		commit = "tree-sha256:" + sourceDigest(".")
	}
	b, err := json.Marshal(map[string]any{
		"workload":   workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      traced,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"commit":     commit,
		"command": fmt.Sprintf("bash ldpbench/run.sh --workload %s --seed %d --seconds %g --trace %d",
			workload, cfg.seed, cfg.seconds, traced),
	})
	if err != nil {
		return fmt.Sprintf("{%q: %q}", "error", err.Error())
	}
	return string(b)
}

// sourceDigest identifies the code under test where no git metadata is at
// hand: a SHA-256 over the path and content of every Go source and module
// file below root, in lexical order. Unreadable files are skipped.
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// metric is one named measurement; samples is the sample count behind a
// percentile or median (0 for the rest).
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

// ungated lists end-to-end metrics printed for people but left out of the
// JSON summary and of BENCHMARK.json: on a shared 2-core host, unchanged
// code moved them by more than 15% of the median, within one ten-seed set or
// between two, which leaves the largest allowed bound of 25% too little
// margin (README.md, Steadiness).
var ungated = map[string]bool{
	"ingest_rps": true, "cpu_s_per_mreport": true, "read_p50_ms": true,
	"batch_p50_ms": true, "batch_p99_ms": true, "read_p99_ms": true,
}

// result is what a run prints: notes and one line per metric for people, then
// the JSON summary as the last line.
type result struct {
	attempted, failed int64
	metrics           []metric
	notes             []string
}

func (r *result) add(name string, value float64, unit string, samples int) {
	r.metrics = append(r.metrics, metric{name, value, unit, samples})
}

// write prints the result; it prints nothing when a value is not finite.
func (r *result) write(w io.Writer) error {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jsonMetric, len(r.metrics))
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		if !ungated[m.name] {
			ms[m.name] = jsonMetric{m.value, m.unit}
		}
	}
	summary, err := json.Marshal(map[string]any{
		"correct": true, "attempted": r.attempted, "failed": r.failed, "metrics": ms,
	})
	if err != nil {
		return err
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "note", n)
	}
	for _, m := range r.metrics {
		line := fmt.Sprintf("%-38s %14.6g %s", m.name, m.value, m.unit)
		if m.samples > 0 {
			line += fmt.Sprintf("  (n=%d)", m.samples)
		}
		if ungated[m.name] {
			line += "  (ungated)"
		}
		fmt.Fprintln(w, line)
	}
	_, err = fmt.Fprintf(w, "%s\n", summary)
	return err
}
