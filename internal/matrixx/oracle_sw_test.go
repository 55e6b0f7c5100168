package matrixx_test

import (
	"fmt"
	"testing"

	"repro/internal/matrixx"
	"repro/internal/sw"
)

// TestSWChannelsMatchOracle runs CheckPlateauOracle on the Square Wave
// channels the collector serves: ε ∈ {0.5, 1, 2, 4}, B ∈ {16, 64, 256, 1024}
// and d̃ ∈ {B, B/2+1, 2B}.
func TestSWChannelsMatchOracle(t *testing.T) {
	for _, eps := range []float64{0.5, 1, 2, 4} {
		wave := sw.NewSquare(eps)
		for _, d := range []int{16, 64, 256, 1024} {
			for _, dt := range []int{d, d/2 + 1, 2 * d} {
				ch := wave.Channel(d, dt).(*matrixx.Plateau)
				if err := matrixx.CheckPlateauOracle(ch, uint64(d*dt)); err != nil {
					t.Errorf("%s: %v", fmt.Sprintf("eps=%g/d=%d/dt=%d", eps, d, dt), err)
				}
			}
		}
	}
}
