package mechanism

import (
	"runtime"
	"testing"

	"repro/internal/matrixx"
)

// TestChannelBuildLinear guards the complexity of declaring an sw-family
// stream without timing anything: building the channel at d = 16384
// allocates O(d + d̃) bytes (the dense matrix would need 2 GiB), and every
// column stores at most four edge cells, so each EM product stays linear.
func TestChannelBuildLinear(t *testing.T) {
	const d = 16384
	for _, name := range []string{SW, SWDiscrete} {
		for _, eps := range []float64{0.5, 1, 4} {
			m := MustNew(Params{Name: name, Epsilon: eps, Buckets: d})
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ch := m.Channel()
			runtime.ReadMemStats(&after)
			budget := uint64(64 * (d + m.OutputBuckets()) * 8)
			got := after.TotalAlloc - before.TotalAlloc
			if got > budget {
				t.Errorf("%s ε=%v: building the channel allocated %d bytes, want ≤ %d", name, eps, got, budget)
			}
			t.Logf("%s ε=%v: channel build allocated %d bytes (budget %d)", name, eps, got, budget)
			p, ok := ch.(*matrixx.Plateau)
			if !ok {
				t.Fatalf("%s ε=%v: channel is %T, want *matrixx.Plateau", name, eps, ch)
			}
			if e := p.MaxEdges(); e > 4 {
				t.Errorf("%s ε=%v: a column stores %d edge cells, want ≤ 4", name, eps, e)
			}
		}
	}
}
