package stats_test

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/stats"
)

// Fuzz target for the statistics kernel most exposed to hostile float
// input: Quantile (NaN propagation, bounds). Seeds cover the IEEE corner
// values the property suite's Float64Corners generator injects, which is
// where past NaN-handling bugs lived.

// floatsFromBytes decodes the fuzz payload as little-endian float64s.
func floatsFromBytes(data []byte) []float64 {
	xs := make([]float64, 0, len(data)/8)
	for len(data) >= 8 {
		xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		data = data[8:]
	}
	return xs
}

func bytesFromFloats(xs ...float64) []byte {
	out := make([]byte, 0, 8*len(xs))
	for _, x := range xs {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
	}
	return out
}

func FuzzQuantile(f *testing.F) {
	f.Add(bytesFromFloats(1, 2, 3), 0.5)
	f.Add(bytesFromFloats(math.NaN(), 1), 0.25)
	f.Add(bytesFromFloats(math.Inf(1), math.Inf(-1), 0), 0.75)
	f.Add(bytesFromFloats(math.Copysign(0, -1), math.MaxFloat64, -math.MaxFloat64), 1.0)
	f.Add(bytesFromFloats(math.SmallestNonzeroFloat64), 0.0)
	f.Add([]byte{}, 0.5)
	f.Fuzz(func(t *testing.T, data []byte, q float64) {
		if len(data) > 1<<14 {
			return
		}
		xs := floatsFromBytes(data)
		v := stats.Quantile(xs, q)
		anyNaN := false
		for _, x := range xs {
			if math.IsNaN(x) {
				anyNaN = true
			}
		}
		switch {
		case len(xs) == 0 || q < 0 || q > 1 || math.IsNaN(q) || anyNaN:
			if !math.IsNaN(v) {
				t.Fatalf("Quantile(%v, %v) = %v, want NaN for invalid/NaN input", xs, q, v)
			}
		default:
			lo, hi := stats.Min(xs), stats.Max(xs)
			// ±Inf inputs make the interpolation arithmetic produce NaN
			// (Inf - Inf); anything else must land inside [Min, Max] up to
			// rounding.
			if math.IsNaN(v) {
				if !math.IsInf(lo, 0) && !math.IsInf(hi, 0) {
					t.Fatalf("Quantile(%v, %v) = NaN for finite input", xs, q)
				}
				return
			}
			pad := math.Abs(lo)/1e9 + math.Abs(hi)/1e9 + 1e-9
			if v < lo-pad || v > hi+pad {
				t.Fatalf("Quantile(%v, %v) = %v outside [%v, %v]", xs, q, v, lo, hi)
			}
		}
	})
}
