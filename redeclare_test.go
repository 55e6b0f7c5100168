package repro_test

import (
	"errors"
	"math"
	"path/filepath"
	"testing"
	"time"

	"repro"
	"repro/internal/ldphttp"
	"repro/internal/mechanism"
)

// TestRedeclareRule drives one table of redeclarations through both stream
// registries — the library's Streams.Declare and the collector's
// CreateStream — which must agree: mechanism, ε, buckets, the effective
// bandwidth and the windowing (zero values inherit) are compared; Shards
// and Seed are not. An accepted library redeclaration hands back the
// stream's own Aggregator.
func TestRedeclareRule(t *testing.T) {
	optimum := mechanism.EffectiveBandwidth(mechanism.SW, 1, 0)
	plain := repro.Options{Epsilon: 1, Buckets: 32}
	windowed := repro.Options{Epsilon: 1, Buckets: 32, Epoch: time.Minute, Retain: 4}
	with := func(o repro.Options, edit func(*repro.Options)) repro.Options {
		edit(&o)
		return o
	}
	cases := []struct {
		name      string
		first, re repro.Options
		accept    bool
	}{
		{"identical", plain, plain, true},
		{"explicit optimum bandwidth vs 0", plain, with(plain, func(o *repro.Options) { o.Bandwidth = optimum }), true},
		{"other shards", plain, with(plain, func(o *repro.Options) { o.Shards = 3 }), true},
		{"other seed", plain, with(plain, func(o *repro.Options) { o.Seed = 99 }), true},
		{"windowed, zero epoch and retain", windowed, plain, true},
		{"windowed, same epoch, zero retain", windowed, with(windowed, func(o *repro.Options) { o.Retain = 0 }), true},
		{"other epsilon", plain, with(plain, func(o *repro.Options) { o.Epsilon = 2 }), false},
		{"other buckets", plain, with(plain, func(o *repro.Options) { o.Buckets = 64 }), false},
		{"other mechanism", plain, with(plain, func(o *repro.Options) { o.Mechanism = "grr" }), false},
		{"other bandwidth", plain, with(plain, func(o *repro.Options) { o.Bandwidth = 0.3 }), false},
		{"plain to windowed", plain, windowed, false},
		{"other epoch", windowed, with(windowed, func(o *repro.Options) { o.Epoch = time.Hour }), false},
		{"other retain", windowed, with(windowed, func(o *repro.Options) { o.Retain = 6 }), false},
	}
	server := func(o repro.Options) ldphttp.StreamConfig {
		return ldphttp.StreamConfig{Epsilon: o.Epsilon, Buckets: o.Buckets, Mechanism: o.Mechanism,
			Bandwidth: o.Bandwidth, Shards: o.Shards, Epoch: ldphttp.Duration(o.Epoch), Retain: o.Retain}
	}
	srv := ldphttp.NewServer(ldphttp.Config{Epsilon: 1, Buckets: 16, RefreshInterval: time.Hour})
	t.Cleanup(srv.Close)
	for _, c := range cases {
		lib := repro.NewStreams()
		agg, err := lib.Declare("s", c.first)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		again, err := lib.Declare("s", c.re)
		if got := err == nil; got != c.accept {
			t.Errorf("%s: library accepted = %v (%v), want %v", c.name, got, err, c.accept)
		} else if c.accept && again != agg {
			t.Errorf("%s: library redeclare returned another aggregator", c.name)
		}

		if err := srv.CreateStream("s", server(c.first)); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		err = srv.CreateStream("s", server(c.re))
		if got := err == nil; got != c.accept {
			t.Errorf("%s: server accepted = %v (%v), want %v", c.name, got, err, c.accept)
		} else if !c.accept && !errors.Is(err, ldphttp.ErrStreamConfigMismatch) {
			t.Errorf("%s: server refusal %v does not wrap ErrStreamConfigMismatch", c.name, err)
		}
		if err := srv.DropStream("s"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLibraryRejectsNonFiniteDeclarations checks the library's entry points
// against non-finite parameters: each is refused up front, and the registry
// keeps saving.
func TestLibraryRejectsNonFiniteDeclarations(t *testing.T) {
	bad := []repro.Options{
		{Epsilon: math.NaN(), Buckets: 16},
		{Epsilon: math.Inf(1), Buckets: 16},
		{Epsilon: 1, Buckets: 16, Bandwidth: math.NaN()},
		{Epsilon: 1, Buckets: 16, Bandwidth: math.Inf(1)},
	}
	reg := repro.NewStreams()
	for _, opts := range bad {
		if _, err := repro.NewAggregator(opts); err == nil {
			t.Errorf("NewAggregator(%+v) accepted", opts)
		}
		if _, err := repro.NewClient(opts); err == nil {
			t.Errorf("NewClient(%+v) accepted", opts)
		}
		if _, err := reg.Declare("x", opts); err == nil {
			t.Errorf("Declare(%+v) accepted", opts)
		}
	}
	if names := reg.Names(); len(names) != 0 {
		t.Errorf("rejected declarations registered %v", names)
	}
	if err := reg.Save(filepath.Join(t.TempDir(), "s.snap")); err != nil {
		t.Errorf("save after rejected declarations: %v", err)
	}
}
