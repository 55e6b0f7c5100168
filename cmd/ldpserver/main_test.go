package main

// Flag-parsing coverage for the collector binary: the -stream spec syntax
// (positional and key=value options), invalid mechanism parameters,
// duplicate names, and the top-level flag validation — all through the
// extracted parseArgs, so no test ever binds a socket.

import (
	"strings"
	"testing"
	"time"

	"repro/internal/ldphttp"
)

func TestParseStreamFlag(t *testing.T) {
	cases := []struct {
		raw  string
		want streamFlag
	}{
		{"age:1.0:256", streamFlag{name: "age", cfg: ldphttp.StreamConfig{Epsilon: 1, Buckets: 256}}},
		{"income:0.5:512:0.25", streamFlag{name: "income", cfg: ldphttp.StreamConfig{Epsilon: 0.5, Buckets: 512, Bandwidth: 0.25}}},
		{"income:0.5:512:bandwidth=0.25", streamFlag{name: "income", cfg: ldphttp.StreamConfig{Epsilon: 0.5, Buckets: 512, Bandwidth: 0.25}}},
		{"lat:1:256:epoch=1m", streamFlag{name: "lat", cfg: ldphttp.StreamConfig{Epsilon: 1, Buckets: 256, Epoch: ldphttp.Duration(time.Minute)}}},
		{"lat:1:256:epoch=90s:retain=12", streamFlag{name: "lat", cfg: ldphttp.StreamConfig{Epsilon: 1, Buckets: 256, Epoch: ldphttp.Duration(90 * time.Second), Retain: 12}}},
		{"lat:1:256:0.3:epoch=1h:retain=24", streamFlag{name: "lat", cfg: ldphttp.StreamConfig{Epsilon: 1, Buckets: 256, Bandwidth: 0.3, Epoch: ldphttp.Duration(time.Hour), Retain: 24}}},
		{"os:1:64:mech=oue", streamFlag{name: "os", cfg: ldphttp.StreamConfig{Epsilon: 1, Buckets: 64, Mechanism: "oue"}}},
		{"os:1:64:mechanism=grr", streamFlag{name: "os", cfg: ldphttp.StreamConfig{Epsilon: 1, Buckets: 64, Mechanism: "grr"}}},
		{"city:2:1024:mech=auto:epoch=1m", streamFlag{name: "city", cfg: ldphttp.StreamConfig{Epsilon: 2, Buckets: 1024, Mechanism: "auto", Epoch: ldphttp.Duration(time.Minute)}}},
	}
	for _, tc := range cases {
		got, err := parseStreamFlag(tc.raw)
		if err != nil {
			t.Errorf("parseStreamFlag(%q): %v", tc.raw, err)
			continue
		}
		if got != tc.want {
			t.Errorf("parseStreamFlag(%q) = %+v, want %+v", tc.raw, got, tc.want)
		}
	}
}

func TestParseStreamFlagErrors(t *testing.T) {
	cases := map[string]string{
		"age":                          "want name:eps",
		"age:1.0":                      "want name:eps",
		"age:zero:256":                 "bad epsilon",
		"age:-1:256":                   "epsilon must be positive",
		"age:0:256":                    "epsilon must be positive",
		"age:1:none":                   "bad bucket count",
		"age:1:1":                      "at least 2 buckets",
		"age:1:256:wide":               "bad bandwidth",
		"age:1:256:0.2:0.3":            "unexpected token",
		"age:1:256:epoch=tomorrow":     "bad epoch",
		"age:1:256:epoch=-5s":          "epoch must be positive",
		"age:1:256:retain=3":           "retain without epoch",
		"age:1:256:epoch=1m:retain=0":  "bad retain",
		"age:1:256:epoch=1m:retain=-4": "bad retain",
		"age:1:256:epoch=1m:ttl=7":     "unknown option",
		"age:1:256:mech=rappor":        "unknown mechanism",
		"age:1:256:mech=":              "unknown mechanism",
	}
	for raw, wantSub := range cases {
		_, err := parseStreamFlag(raw)
		if err == nil {
			t.Errorf("parseStreamFlag(%q) accepted", raw)
			continue
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("parseStreamFlag(%q) error %q, want it to mention %q", raw, err, wantSub)
		}
	}
}

func TestParseArgs(t *testing.T) {
	conf, err := parseArgs([]string{
		"-addr", ":9090", "-eps", "2", "-buckets", "128", "-mechanism", "grr",
		"-epoch", "5m", "-retain", "6",
		"-stream", "age:1:256", "-stream", "lat:1:64:epoch=1m:retain=3",
		"-snapshot", "/tmp/x.snap", "-snapshot-interval", "10s",
	})
	if err != nil {
		t.Fatal(err)
	}
	if conf.addr != ":9090" || conf.cfg.Epsilon != 2 || conf.cfg.Buckets != 128 {
		t.Errorf("parsed %+v", conf)
	}
	if conf.cfg.Mechanism != "grr" {
		t.Errorf("default-stream mechanism parsed as %q", conf.cfg.Mechanism)
	}
	if conf.cfg.Epoch != 5*time.Minute || conf.cfg.Retain != 6 {
		t.Errorf("default-stream windowing parsed as %v/%d", conf.cfg.Epoch, conf.cfg.Retain)
	}
	if len(conf.streams) != 2 || conf.streams[1].cfg.Epoch != ldphttp.Duration(time.Minute) {
		t.Errorf("streams parsed as %+v", conf.streams)
	}
	if conf.snapPath != "/tmp/x.snap" || conf.snapInterval != 10*time.Second {
		t.Errorf("snapshot flags parsed as %q/%v", conf.snapPath, conf.snapInterval)
	}

	// Defaults.
	conf, err = parseArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if conf.addr != "127.0.0.1:8080" || conf.cfg.Epsilon != 1 || conf.cfg.Buckets != 512 ||
		conf.cfg.Epoch != 0 || conf.snapPath != "" {
		t.Errorf("defaults parsed as %+v", conf)
	}
}

func TestParseArgsErrors(t *testing.T) {
	cases := map[string][]string{
		"non-positive eps":        {"-eps", "0"},
		"negative eps":            {"-eps", "-1"},
		"single bucket":           {"-buckets", "1"},
		"buckets over the cap":    {"-buckets", "65537"},
		"negative epoch":          {"-epoch", "-1m"},
		"retain without epoch":    {"-retain", "5"},
		"bad snapshot interval":   {"-snapshot-interval", "0s"},
		"bad stream spec":         {"-stream", "age:1"},
		"duplicate stream names":  {"-stream", "age:1:256", "-stream", "age:1:256"},
		"stream epsilon invalid":  {"-stream", "age:-2:256"},
		"stream buckets invalid":  {"-stream", "age:1:0"},
		"stream retain w/o epoch": {"-stream", "age:1:256:retain=2"},
		"unknown mechanism":       {"-mechanism", "rappor"},
		"bad stream mechanism":    {"-stream", "age:1:256:mech=nope"},
		"removed -pprof flag":     {"-pprof"},
	}
	for name, args := range cases {
		if _, err := parseArgs(args); err == nil {
			t.Errorf("%s: parseArgs(%v) accepted", name, args)
		}
	}
}

func TestParseArgsFederation(t *testing.T) {
	conf, err := parseArgs([]string{
		"-push-to", "http://root:8080", "-edge-id", "sfo-1", "-push-interval", "5s",
	})
	if err != nil {
		t.Fatal(err)
	}
	if conf.pushTo != "http://root:8080" || conf.edgeID != "sfo-1" || conf.pushInterval != 5*time.Second {
		t.Errorf("edge flags parsed as %+v", conf)
	}
	if conf.cfg.Federation.Accept || conf.cfg.Federation.AutoDeclare {
		t.Errorf("edge flags enabled root federation: %+v", conf.cfg.Federation)
	}

	conf, err = parseArgs([]string{"-accept-federation"})
	if err != nil {
		t.Fatal(err)
	}
	if !conf.cfg.Federation.Accept || conf.cfg.Federation.AutoDeclare {
		t.Errorf("-accept-federation parsed as %+v", conf.cfg.Federation)
	}

	// Auto-declare implies accepting.
	conf, err = parseArgs([]string{"-federation-auto-declare"})
	if err != nil {
		t.Fatal(err)
	}
	if !conf.cfg.Federation.Accept || !conf.cfg.Federation.AutoDeclare {
		t.Errorf("-federation-auto-declare parsed as %+v", conf.cfg.Federation)
	}

	// Without -edge-id the hostname fills in (when it is a valid name).
	conf, err = parseArgs([]string{"-push-to", "http://root:8080"})
	if err == nil && conf.edgeID == "" {
		t.Error("edge id neither defaulted nor rejected")
	}

	// A server can be edge and root at once (tiered fan-in).
	conf, err = parseArgs([]string{"-push-to", "http://root:8080", "-edge-id", "mid-1", "-accept-federation"})
	if err != nil {
		t.Fatal(err)
	}
	if !conf.cfg.Federation.Accept || conf.pushTo == "" {
		t.Errorf("tiered flags parsed as %+v", conf)
	}
}

func TestParseArgsFederationErrors(t *testing.T) {
	cases := map[string][]string{
		"push-to not a URL":      {"-push-to", "root:8080"},
		"push-to bad scheme":     {"-push-to", "ftp://root"},
		"edge-id without target": {"-edge-id", "sfo-1"},
		"edge-id invalid":        {"-push-to", "http://r", "-edge-id", "no spaces"},
		"bad push interval":      {"-push-to", "http://r", "-edge-id", "e", "-push-interval", "0s"},
	}
	for name, args := range cases {
		if _, err := parseArgs(args); err == nil {
			t.Errorf("%s: parseArgs(%v) accepted", name, args)
		}
	}
}

func TestParseArgsOps(t *testing.T) {
	// Defaults: 1 MiB body cap, no rate limits, no access log, telemetry on.
	conf, err := parseArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	ops := conf.cfg.Ops
	if ops.MaxBodyBytes != 1<<20 || ops.RateLimit != 0 || ops.EdgeRateLimit != 0 ||
		ops.AccessLog != nil || ops.AwaitRestore {
		t.Errorf("default ops config %+v", ops)
	}

	conf, err = parseArgs([]string{
		"-max-body", "4096",
		"-rate-limit", "100:250",
		"-edge-rate-limit", "5",
		"-log-format", "json",
		"-snapshot", "/tmp/x.snap",
	})
	if err != nil {
		t.Fatal(err)
	}
	ops = conf.cfg.Ops
	if ops.MaxBodyBytes != 4096 {
		t.Errorf("MaxBodyBytes = %d", ops.MaxBodyBytes)
	}
	if ops.RateLimit != 100 || ops.RateBurst != 250 {
		t.Errorf("rate limit parsed as %v:%v", ops.RateLimit, ops.RateBurst)
	}
	if ops.EdgeRateLimit != 5 || ops.EdgeRateBurst != 0 {
		t.Errorf("edge rate limit parsed as %v:%v", ops.EdgeRateLimit, ops.EdgeRateBurst)
	}
	if ops.AccessLog == nil || !ops.LogJSON {
		t.Errorf("log-format json parsed as AccessLog=%v LogJSON=%v", ops.AccessLog, ops.LogJSON)
	}
	if !ops.AwaitRestore {
		t.Error("-snapshot did not set AwaitRestore")
	}

	// kv logging is structured but not JSON.
	conf, err = parseArgs([]string{"-log-format", "kv"})
	if err != nil {
		t.Fatal(err)
	}
	if conf.cfg.Ops.AccessLog == nil || conf.cfg.Ops.LogJSON {
		t.Errorf("log-format kv parsed as %+v", conf.cfg.Ops)
	}

	bad := map[string][]string{
		"negative max-body":  {"-max-body", "-1"},
		"negative trace buf": {"-trace-buffer", "-1"},
		"negative slow":      {"-slow-request", "-1s"},
		"slow without log":   {"-slow-request", "250ms"},
		"no-trace conflict":  {"-no-trace", "-trace-sample", "4"},
		"rate not a number":  {"-rate-limit", "fast"},
		"negative rate":      {"-rate-limit", "-3"},
		"bad burst":          {"-rate-limit", "10:zero"},
		"burst without rate": {"-rate-limit", "0:5"},
		"bad edge rate":      {"-edge-rate-limit", "1:2:3"},
		"unknown log format": {"-log-format", "xml"},
	}
	for name, args := range bad {
		if _, err := parseArgs(args); err == nil {
			t.Errorf("%s: parseArgs(%v) accepted", name, args)
		}
	}
}

func TestParseArgsTrace(t *testing.T) {
	// Defaults: tracing on with zero-value knobs (library defaults apply),
	// no debug listener.
	conf, err := parseArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	tc := conf.cfg.Ops.Trace
	if tc.Disable || tc.Capacity != 0 || tc.SampleEvery != 0 || tc.SlowRequest != 0 || conf.debugAddr != "" {
		t.Errorf("default trace config %+v (debugAddr %q)", tc, conf.debugAddr)
	}

	conf, err = parseArgs([]string{
		"-debug-addr", "127.0.0.1:6060",
		"-trace-sample", "32",
		"-trace-buffer", "1024",
		"-slow-request", "250ms",
		"-log-format", "kv",
	})
	if err != nil {
		t.Fatal(err)
	}
	tc = conf.cfg.Ops.Trace
	if tc.Disable || tc.Capacity != 1024 || tc.SampleEvery != 32 || tc.SlowRequest != 250*time.Millisecond {
		t.Errorf("trace flags parsed as %+v", tc)
	}
	if conf.debugAddr != "127.0.0.1:6060" {
		t.Errorf("debugAddr parsed as %q", conf.debugAddr)
	}

	conf, err = parseArgs([]string{"-no-trace"})
	if err != nil {
		t.Fatal(err)
	}
	if !conf.cfg.Ops.Trace.Disable {
		t.Error("-no-trace did not disable tracing")
	}
}
