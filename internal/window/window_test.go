package window

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2026, 7, 30, 12, 0, 0, 0, time.UTC)

func newRing(t *testing.T, buckets, retain int) *Ring {
	t.Helper()
	return New(buckets, 2, Config{Epoch: time.Minute, Retain: retain}, t0)
}

// addN records n reports in one bucket of the live epoch.
func addN(t testing.TB, r *Ring, bucket int, n uint64) {
	t.Helper()
	counts := make([]uint64, r.Buckets())
	counts[bucket] = n
	if err := r.AddCounts(counts); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidate(t *testing.T) {
	if _, err := (Config{}).Validate(); err == nil {
		t.Error("zero epoch accepted")
	}
	if _, err := (Config{Epoch: -time.Second}).Validate(); err == nil {
		t.Error("negative epoch accepted")
	}
	if _, err := (Config{Epoch: time.Second, Retain: -1}).Validate(); err == nil {
		t.Error("negative retain accepted")
	}
	if _, err := (Config{Epoch: time.Second, Retain: MaxRetain + 1}).Validate(); err == nil {
		t.Error("retain above MaxRetain accepted")
	}
	if _, err := (Config{Epoch: time.Second, Retain: MaxRetain}).Validate(); err != nil {
		t.Errorf("retain MaxRetain rejected: %v", err)
	}
	cfg, err := (Config{Epoch: time.Second}).Validate()
	if err != nil || cfg.Retain != DefaultRetain {
		t.Errorf("default retain: got %d, %v", cfg.Retain, err)
	}
}

func TestRotationSealsAndRetains(t *testing.T) {
	r := newRing(t, 8, 3)
	if cur, start := r.Current(); cur != 0 || !start.Equal(t0) {
		t.Fatalf("born in epoch %d at %v", cur, start)
	}
	// Epoch 0: 5 reports in bucket 1.
	addN(t, r, 1, 5)
	if got := r.Advance(t0.Add(30 * time.Second)); got != 0 {
		t.Fatalf("rotated %d epochs before the period elapsed", got)
	}
	if got := r.Advance(t0.Add(time.Minute)); got != 1 {
		t.Fatalf("Advance at +1m rotated %d epochs, want 1", got)
	}
	if cur, start := r.Current(); cur != 1 || !start.Equal(t0.Add(time.Minute)) {
		t.Fatalf("after rotation: epoch %d start %v", cur, start)
	}
	if r.LiveN() != 0 {
		t.Fatalf("live epoch not reset: LiveN = %d", r.LiveN())
	}
	if r.N() != 5 {
		t.Fatalf("total N = %d, want 5 (sealed)", r.N())
	}
	// Epochs 1..4, one report each in bucket e%8; retention 3 drops 0 and 1.
	for e := 1; e <= 4; e++ {
		r.Add(e % 8)
		r.Advance(t0.Add(time.Duration(e+1) * time.Minute))
	}
	if cur, _ := r.Current(); cur != 5 {
		t.Fatalf("current epoch %d, want 5", cur)
	}
	if r.Oldest() != 2 {
		t.Fatalf("oldest retained %d, want 2", r.Oldest())
	}
	if r.SealedLen() != 3 {
		t.Fatalf("sealed count %d, want 3", r.SealedLen())
	}
	if r.N() != 3 {
		t.Fatalf("N after aging = %d, want 3", r.N())
	}
}

func TestAdvanceGapFillsEmptyEpochs(t *testing.T) {
	r := newRing(t, 4, 10)
	r.Add(2)
	// The clock jumps 3.5 periods: epoch 0 seals with the report, epochs
	// 1 and 2 seal empty, epoch 3 is live and half elapsed.
	if got := r.Advance(t0.Add(3*time.Minute + 30*time.Second)); got != 3 {
		t.Fatalf("rotated %d epochs, want 3", got)
	}
	cur, start := r.Current()
	if cur != 3 || !start.Equal(t0.Add(3*time.Minute)) {
		t.Fatalf("after jump: epoch %d start %v", cur, start)
	}
	for _, tc := range []struct {
		epoch, wantN int
	}{{0, 1}, {1, 0}, {2, 0}} {
		_, n, err := r.Merge(Range{Lo: tc.epoch, Hi: tc.epoch}, nil)
		if err != nil || n != tc.wantN {
			t.Errorf("epoch %d: n=%d err=%v, want n=%d", tc.epoch, n, err, tc.wantN)
		}
	}
}

// TestAdvanceHugeJumpIsBounded pins the catch-up path: a clock jump of
// millions of periods (a restored snapshot after long downtime) must not
// materialize one sealed epoch per elapsed period — only the retained tail
// survives, the report sealed before the jump ages out, and the rotation
// clock lands on the right boundary.
func TestAdvanceHugeJumpIsBounded(t *testing.T) {
	r := New(4, 1, Config{Epoch: time.Second, Retain: 3}, t0)
	r.Add(1)
	const jump = 5_000_000 // ~58 days of one-second epochs
	done := make(chan int, 1)
	go func() { done <- r.Advance(t0.Add(jump * time.Second)) }()
	select {
	case got := <-done:
		if got != jump {
			t.Fatalf("rotated %d epochs, want %d", got, jump)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Advance did not return — catch-up is not bounded")
	}
	cur, start := r.Current()
	if cur != jump || !start.Equal(t0.Add(jump*time.Second)) {
		t.Fatalf("after jump: epoch %d start %v", cur, start)
	}
	if r.SealedLen() != 3 || r.Oldest() != jump-3 {
		t.Fatalf("retained %d sealed epochs, oldest %d; want 3 ending at %d",
			r.SealedLen(), r.Oldest(), jump-1)
	}
	if r.N() != 0 {
		t.Fatalf("pre-jump report survived retention: N = %d", r.N())
	}
}

func TestMergeRanges(t *testing.T) {
	r := newRing(t, 4, 8)
	// Epoch e gets e+1 reports in bucket e.
	for e := 0; e < 3; e++ {
		addN(t, r, e, uint64(e+1))
		r.Advance(t0.Add(time.Duration(e+1) * time.Minute))
	}
	addN(t, r, 3, 10) // live epoch 3

	counts, n, err := r.Merge(Range{Lo: 0, Hi: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("sealed merge n = %d, want 6", n)
	}
	for b, want := range []float64{1, 2, 3, 0} {
		if counts[b] != want {
			t.Errorf("bucket %d = %v, want %v", b, counts[b], want)
		}
	}

	// Including the live epoch picks up unsealed reports.
	counts, n, err = r.Merge(Range{Lo: 2, Hi: 3}, counts)
	if err != nil {
		t.Fatal(err)
	}
	if n != 13 || counts[2] != 3 || counts[3] != 10 {
		t.Fatalf("live-inclusive merge: n=%d counts=%v", n, counts)
	}

	all, n := r.MergeAll(nil)
	if n != 16 {
		t.Fatalf("MergeAll n = %d, want 16", n)
	}
	var sum float64
	for _, c := range all {
		sum += c
	}
	if sum != 16 {
		t.Fatalf("MergeAll counts sum to %v", sum)
	}

	// Out-of-retention and future ranges fail.
	if _, _, err := r.Merge(Range{Lo: 0, Hi: 9}, nil); err == nil {
		t.Error("future range merged")
	}
	r2 := newRing(t, 4, 1)
	for e := 0; e < 4; e++ {
		r2.Advance(t0.Add(time.Duration(e+1) * time.Minute))
	}
	if _, _, err := r2.Merge(Range{Lo: 0, Hi: 0}, nil); err == nil {
		t.Error("aged-out range merged")
	}
}

func TestParseSelector(t *testing.T) {
	good := map[string]Selector{
		"last:1":      {Last: 1},
		"last:12":     {Last: 12},
		"epochs:0..0": {Lo: 0, Hi: 0, Abs: true},
		"epochs:3..7": {Lo: 3, Hi: 7, Abs: true},
	}
	for s, want := range good {
		got, err := ParseSelector(s)
		if err != nil || got != want {
			t.Errorf("ParseSelector(%q) = %+v, %v; want %+v", s, got, err, want)
		}
	}
	bad := []string{"", "last:", "last:0", "last:-2", "last:x", "epochs:", "epochs:5",
		"epochs:5..2", "epochs:-1..2", "epochs:a..b", "hour", "epochs:1..", "last:1.5"}
	for _, s := range bad {
		if _, err := ParseSelector(s); err == nil {
			t.Errorf("ParseSelector(%q) accepted", s)
		}
	}
}

func TestResolve(t *testing.T) {
	r := newRing(t, 4, 3)
	for e := 0; e < 5; e++ { // current epoch 5, retained 2..4
		r.Advance(t0.Add(time.Duration(e+1) * time.Minute))
	}
	cases := []struct {
		sel  Selector
		want Range
		ok   bool
	}{
		{Selector{Last: 1}, Range{5, 5}, true},
		{Selector{Last: 3}, Range{3, 5}, true},
		{Selector{Last: 100}, Range{2, 5}, true}, // clamped
		{Selector{Lo: 3, Hi: 4, Abs: true}, Range{3, 4}, true},
		{Selector{Lo: 5, Hi: 5, Abs: true}, Range{5, 5}, true},
		{Selector{Lo: 1, Hi: 4, Abs: true}, Range{}, false}, // aged out
		{Selector{Lo: 5, Hi: 6, Abs: true}, Range{}, false}, // future
		{Selector{}, Range{}, false},
	}
	for _, tc := range cases {
		got, err := r.Resolve(tc.sel)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("Resolve(%+v) = %+v, %v; want %+v ok=%v", tc.sel, got, err, tc.want, tc.ok)
		}
	}
}

func TestStateRestoreRoundTrip(t *testing.T) {
	r := newRing(t, 8, 4)
	for e := 0; e < 6; e++ {
		addN(t, r, e%8, uint64(10*(e+1)))
		r.Advance(t0.Add(time.Duration(e+1) * time.Minute))
	}
	addN(t, r, 7, 3) // mid-epoch live reports

	st := r.State()
	r2 := New(8, 2, r.Config(), t0.Add(time.Hour)) // born on another clock
	if err := r2.CanAdopt(st); err != nil {
		t.Fatal(err)
	}
	if err := r2.Adopt(st); err != nil {
		t.Fatal(err)
	}
	if c1, s1 := r.Current(); true {
		if c2, s2 := r2.Current(); c1 != c2 || !s1.Equal(s2) {
			t.Fatalf("restored clock (%d, %v) != original (%d, %v)", c2, s2, c1, s1)
		}
	}
	if r.N() != r2.N() || r.LiveN() != r2.LiveN() || r.Oldest() != r2.Oldest() {
		t.Fatalf("restored totals differ: N %d/%d live %d/%d oldest %d/%d",
			r.N(), r2.N(), r.LiveN(), r2.LiveN(), r.Oldest(), r2.Oldest())
	}
	a, na := r.MergeAll(nil)
	b, nb := r2.MergeAll(nil)
	if na != nb {
		t.Fatalf("merge totals differ: %d vs %d", na, nb)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("bucket %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	// Restored ring keeps rotating on the same clock.
	cur, _ := r2.Current()
	if got := r2.Advance(t0.Add(time.Duration(cur+1) * time.Minute)); got != 1 {
		t.Fatalf("restored ring rotated %d, want 1", got)
	}
}

func TestRestoreRejectsBadState(t *testing.T) {
	cfg := Config{Epoch: time.Minute, Retain: 2}
	good := New(4, 1, cfg, t0).State()
	cases := map[string]func(State) State{
		"negative current": func(s State) State { s.Current = -1; return s },
		"sealed >= current": func(s State) State {
			s.Current = 1
			s.Sealed = []Epoch{{Index: 1, Counts: []uint64{1, 0, 0, 0}, N: 1}}
			return s
		},
		"sealed out of order": func(s State) State {
			s.Current = 3
			s.Sealed = []Epoch{{Index: 1}, {Index: 1}}
			return s
		},
		"sealed wrong buckets": func(s State) State {
			s.Current = 1
			s.Sealed = []Epoch{{Index: 0, Counts: []uint64{1}, N: 1}}
			return s
		},
		"live wrong buckets": func(s State) State { s.Live = []uint64{1, 2}; return s },
		"sealed N above its counts": func(s State) State {
			s.Current = 1
			s.Sealed = []Epoch{{Index: 0, Counts: []uint64{1, 0, 2, 0}, N: 4}}
			return s
		},
		"sealed N without counts": func(s State) State {
			s.Current = 1
			s.Sealed = []Epoch{{Index: 0, N: 1}}
			return s
		},
	}
	for name, mutate := range cases {
		r := New(4, 1, cfg, t0)
		if err := r.CanAdopt(mutate(good)); err == nil {
			t.Errorf("%s: CanAdopt accepted", name)
		}
		if err := r.Adopt(mutate(good)); err == nil {
			t.Errorf("%s: Adopt accepted", name)
		}
		if r.N() != 0 || r.SealedLen() != 0 {
			t.Errorf("%s: rejected Adopt changed the ring", name)
		}
	}
	// A ring that already rotated adopts nothing.
	r := New(4, 1, cfg, t0)
	r.Rotate()
	if err := r.Adopt(good); err == nil {
		t.Error("rotated ring adopted a persisted state")
	}
}

// TestPlainRing pins the never-sealing mode a zero Config selects: the one
// live epoch holds everything, nothing rotates however far the clock runs,
// and epoch history cannot be adopted into it.
func TestPlainRing(t *testing.T) {
	r := New(4, 2, Config{}, t0)
	r.Add(1)
	r.AddBatch([]int{0, 1, 3})
	if err := r.AddCounts([]uint64{2, 0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.AddEpochCounts(0, []uint64{0, 0, 5, 0}); err != nil {
		t.Fatal(err)
	}
	if err := r.AddEpochCounts(1, []uint64{0, 0, 5, 0}); !errors.Is(err, ErrEpochNotStarted) {
		t.Errorf("epoch-1 delta on a plain ring: %v, want ErrEpochNotStarted", err)
	}
	far := t0.Add(1000 * time.Hour)
	if r.RotationDue(far) {
		t.Error("plain ring reports a rotation due")
	}
	if got := r.Advance(far); got != 0 {
		t.Errorf("Advance sealed %d epochs", got)
	}
	r.Rotate()
	if cur, _ := r.Current(); cur != 0 || r.SealedLen() != 0 || r.Oldest() != 0 {
		t.Errorf("plain ring moved: epoch %d, %d sealed, oldest %d", cur, r.SealedLen(), r.Oldest())
	}
	hist, n := r.MergeAll(nil)
	if n != 12 || r.N() != 12 || r.LiveN() != 12 {
		t.Fatalf("totals: merge %d, N %d, live %d; want 12", n, r.N(), r.LiveN())
	}
	for b, want := range []float64{3, 2, 5, 2} {
		if hist[b] != want {
			t.Errorf("bucket %d = %v, want %v", b, hist[b], want)
		}
	}
	if cfg := r.Config(); cfg != (Config{}) {
		t.Errorf("plain config filled to %+v", cfg)
	}
	st := r.State()
	if st.Epoch != 0 || st.Current != 0 || len(st.Sealed) != 0 || st.LiveN != 12 {
		t.Errorf("plain state = %+v", st)
	}
	windowed := newRing(t, 4, 2)
	windowed.Add(0)
	windowed.Rotate()
	if err := New(4, 1, Config{}, t0).CanAdopt(windowed.State()); err == nil {
		t.Error("plain ring accepted epoch history")
	}
	fresh := New(4, 1, Config{}, t0)
	if err := fresh.Adopt(st); err != nil || fresh.N() != 12 {
		t.Errorf("plain adopt: N %d, err %v", fresh.N(), err)
	}
}

// TestMergeDoesNotAllocate: a warm Merge and MergeAll sum the live stripes
// straight into the caller's buffer, so refreshes stay allocation-free.
func TestMergeDoesNotAllocate(t *testing.T) {
	for _, cfg := range []Config{{}, {Epoch: time.Minute, Retain: 4}} {
		r := New(256, 4, cfg, t0)
		for e := 0; e < 3; e++ {
			for b := 0; b < 256; b++ {
				addN(t, r, b, uint64(b+e))
			}
			r.Advance(t0.Add(time.Duration(e+1) * time.Minute))
		}
		cur, _ := r.Current()
		g := Range{Lo: r.Oldest(), Hi: cur}
		dst := make([]float64, 256)
		if a := testing.AllocsPerRun(50, func() { dst, _, _ = r.Merge(g, dst) }); a != 0 {
			t.Errorf("epoch %v: warm Merge allocates %v times", cfg.Epoch, a)
		}
		if a := testing.AllocsPerRun(50, func() { dst, _ = r.MergeAll(dst) }); a != 0 {
			t.Errorf("epoch %v: warm MergeAll allocates %v times", cfg.Epoch, a)
		}
	}
}

// TestConcurrentIngestionRotationMerge races writers against rotation,
// merges and state dumps; run with -race. No report may be lost: every
// ingested report is either in a retained epoch or has aged out with it,
// and with retention ≥ total epochs nothing ages out.
func TestConcurrentIngestionRotationMerge(t *testing.T) {
	const (
		writers   = 4
		perWriter = 2000
		rotations = 20
	)
	r := New(16, 0, Config{Epoch: time.Minute, Retain: rotations + 1}, t0)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWriter; i++ {
				r.Add((id + i) % 16)
			}
		}(w)
	}
	var readers sync.WaitGroup
	stop := make(chan struct{})
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.MergeAll(nil)
			r.State()
			if cur, _ := r.Current(); cur > 0 {
				r.Resolve(Selector{Last: 2})
			}
		}
	}()
	close(start)
	for i := 1; i <= rotations; i++ {
		r.Advance(t0.Add(time.Duration(i) * time.Minute))
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	r.Advance(t0.Add(time.Duration(rotations+1) * time.Minute))
	if got, want := r.N(), writers*perWriter; got != want {
		t.Fatalf("reports lost across rotations: N = %d, want %d", got, want)
	}
	_, n := r.MergeAll(nil)
	if n != writers*perWriter {
		t.Fatalf("merge lost reports: n = %d, want %d", n, writers*perWriter)
	}
}

func TestRangeString(t *testing.T) {
	if got := (Range{Lo: 2, Hi: 5}).String(); got != "epochs:2..5" {
		t.Errorf("Range.String() = %q", got)
	}
	if got := fmt.Sprint(Range{Lo: 0, Hi: 0}); got != "epochs:0..0" {
		t.Errorf("Range via Sprint = %q", got)
	}
}

func TestAddEpochCounts(t *testing.T) {
	t0 := time.Unix(0, 0)
	r := New(4, 1, Config{Epoch: time.Minute, Retain: 4}, t0)
	r.Add(0) // live epoch 0
	r.Advance(t0.Add(time.Minute))
	r.Add(1) // live epoch 1

	// Merge into the live epoch.
	if err := r.AddEpochCounts(1, []uint64{0, 2, 0, 0}); err != nil {
		t.Fatal(err)
	}
	// Merge into a sealed epoch.
	if err := r.AddEpochCounts(0, []uint64{3, 0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if got := r.N(); got != 8 {
		t.Fatalf("N = %d, want 8", got)
	}
	hist, n, err := r.Merge(Range{Lo: 0, Hi: 0}, nil)
	if err != nil || n != 5 {
		t.Fatalf("sealed epoch merge n=%d err=%v", n, err)
	}
	if hist[0] != 4 || hist[3] != 1 {
		t.Fatalf("sealed epoch hist %v", hist)
	}

	// Future epochs are refused with the typed error.
	if err := r.AddEpochCounts(2, []uint64{1, 0, 0, 0}); !errors.Is(err, ErrEpochNotStarted) {
		t.Fatalf("future epoch err = %v", err)
	}
	// Aged-out epochs are refused with the typed error.
	for i := 2; i <= 6; i++ {
		r.Advance(t0.Add(time.Duration(i) * time.Minute))
	}
	if err := r.AddEpochCounts(0, []uint64{1, 0, 0, 0}); !errors.Is(err, ErrEpochAgedOut) {
		t.Fatalf("aged epoch err = %v", err)
	}
	// Shape mismatches are refused.
	if err := r.AddEpochCounts(6, []uint64{1}); err == nil {
		t.Fatal("wrong-width merge accepted")
	}
}

func TestAddEpochCountsFillsSparseAdoptedHistory(t *testing.T) {
	t0 := time.Unix(0, 0)
	r := New(2, 1, Config{Epoch: time.Minute, Retain: 8}, t0)
	// A sparse history (holes at epochs 1 and 3) from an old snapshot.
	if err := r.Adopt(State{
		Epoch: time.Minute, Retain: 8, Current: 4, Start: t0.Add(4 * time.Minute),
		Sealed: []Epoch{{Index: 0, Counts: []uint64{1, 0}, N: 1}, {Index: 2, Counts: []uint64{0, 1}, N: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.AddEpochCounts(3, []uint64{0, 5}); err != nil {
		t.Fatal(err)
	}
	hist, n, err := r.Merge(Range{Lo: 3, Hi: 3}, nil)
	if err != nil || n != 5 || hist[1] != 5 {
		t.Fatalf("sparse-fill merge hist=%v n=%d err=%v", hist, n, err)
	}
	// The filled epoch keeps the sealed list ordered: every index resolves.
	for _, idx := range []int{0, 2, 3} {
		if _, _, err := r.Merge(Range{Lo: idx, Hi: idx}, nil); err != nil {
			t.Fatalf("epoch %d unreachable after sparse fill: %v", idx, err)
		}
	}
}
