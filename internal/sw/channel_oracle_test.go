package sw

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"repro/internal/mathx"
	"repro/internal/matrixx"
)

// The Square Wave channel builder walks its four column bounds forward
// instead of searching for them, so its every cell is pinned bit for bit:
// against the searching builder it replaced (oracleChannel, kept here
// verbatim) and against a digest of every cell over the grid below.

// oracleGrid is the configuration grid both pins run over, in this loop
// order: ε, then bandwidth (BOpt(ε) first), then d, then d̃.
func oracleGrid(yield func(w Wave, d, dt int)) {
	for _, eps := range []float64{0.05, 0.1, 0.5, 1, 2, 4, 8, 16} {
		for _, b := range []float64{BOpt(eps), 0.01, 0.1, 0.37} {
			for _, d := range []int{2, 3, 7, 16, 64, 100, 256, 1000, 1024} {
				for _, dt := range []int{d, d/2 + 1, 2 * d, d + 3} {
					yield(NewWave(eps, b, 1), d, dt)
				}
			}
		}
	}
}

// oracleChannel is the Square Wave branch of Wave.Channel as it was before
// the forward walk: every bound found by a search from its estimated cell.
func oracleChannel(w Wave, d, dt int) *matrixx.Plateau {
	outW := (1 + 2*w.b) / float64(dt)
	inW := 1 / float64(d)
	lower := func(j int) float64 { return w.OutLo() + float64(j)*outW }
	cell := func(t float64, upper bool) int {
		above := func(j int) bool {
			if upper {
				return lower(j)+outW > t
			}
			return lower(j) >= t
		}
		j := mathx.ClampInt(int((t-w.OutLo())/outW), 0, dt)
		for j > 0 && above(j-1) {
			j--
		}
		for j < dt && !above(j) {
			j++
		}
		return j
	}
	ch := matrixx.NewPlateau(dt, d, w.q*outW, (w.p-w.q)*outW)
	var left, right [2]float64
	for i := 0; i < d; i++ {
		vlo := float64(i) * inW
		vhi := vlo + inW
		lo, a := cell(vlo-w.b, true), cell(vhi-w.b, false)
		c, hi := max(a, cell(vlo+w.b, true)), cell(vhi+w.b, false)
		excess := func(e []float64, from, to int) []float64 {
			for j := from; j < to; j++ {
				overlap := mathx.BandRectOverlapIntegral(vlo, vhi, lower(j), lower(j)+outW, w.b) / inW
				e = append(e, (w.p-w.q)*overlap)
			}
			return e
		}
		ch.AddColumn(a, c, excess(left[:0], lo, a), excess(right[:0], c, hi))
	}
	ch.NormalizeCols()
	return ch
}

// TestChannelMatchesOracle compares the whole plateau — bounds, edge cells
// and column scales — with the searching builder's over the grid, d ≠ d̃
// included. reflect.DeepEqual compares floats with ==, which for these
// finite, non-zero-signed values is bit equality.
func TestChannelMatchesOracle(t *testing.T) {
	n := 0
	oracleGrid(func(w Wave, d, dt int) {
		n++
		got, want := w.Channel(d, dt).(*matrixx.Plateau), oracleChannel(w, d, dt)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ε=%v b=%v d=%d d̃=%d: the channel differs from the searching builder's", w.eps, w.b, d, dt)
		}
	})
	if n != 1152 {
		t.Fatalf("grid has %d configurations, want 1152", n)
	}
}

// channelDigest is the SHA-256 of the little-endian bits of At(j, i) for
// every cell (i outer, j inner) of every channel of the grid.
const channelDigest = "e36dcda03532d2a98844ff40b94d1480e42b6e9e3fc9c4912b7f262146e57496"

// TestChannelDigest pins every cell of the grid's channels to the bits the
// searching builder produced.
func TestChannelDigest(t *testing.T) {
	h := sha256.New()
	buf := make([]byte, 0, 1<<16)
	oracleGrid(func(w Wave, d, dt int) {
		ch := w.Channel(d, dt)
		at := ch.(interface{ At(j, i int) float64 }).At
		for i := 0; i < d; i++ {
			for j := 0; j < dt; j++ {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(at(j, i)))
				if len(buf) == cap(buf) {
					h.Write(buf)
					buf = buf[:0]
				}
			}
		}
	})
	h.Write(buf)
	if got := hex.EncodeToString(h.Sum(nil)); got != channelDigest {
		t.Fatalf("channel digest %s, want %s", got, channelDigest)
	}
}
