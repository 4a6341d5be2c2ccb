package simtime

import (
	"math"
	"math/big"
	"testing"
)

// FuzzRateArithmetic checks Rate.Transmission and Rate.BytesIn against
// exact math/big arithmetic over every non-negative int64 rate, byte
// count and duration: the rounding must match and an out-of-range result
// must saturate rather than wrap, go negative or panic. The seed corpus
// in testdata/fuzz/FuzzRateArithmetic holds the edges where the 64-bit
// arithmetic used to fail (a negative time past 2^63-1 ps, a divide
// panic past 2^64-1 ps, n*8 wrapping for n >= 2^61) and realistic link
// figures; plain `go test` replays it.
func FuzzRateArithmetic(f *testing.F) {
	f.Add(int64(40*Gbps), int64(1086), int64(Second))
	f.Fuzz(func(t *testing.T, rate, n, d int64) {
		// Clear the sign bits so every input is a non-negative case.
		rate, n, d = rate&math.MaxInt64, n&math.MaxInt64, d&math.MaxInt64
		r := Rate(rate)
		if r == 0 {
			if got := r.BytesIn(Duration(d)); got != 0 {
				t.Fatalf("Rate(0).BytesIn(%d) = %d, want 0", d, got)
			}
			return
		}
		// Transmission: ceil(n * 8 * 10^12 / rate) picoseconds.
		num := new(big.Int).Mul(big.NewInt(n), new(big.Int).SetUint64(bitPicoseconds))
		den := big.NewInt(rate)
		q, m := new(big.Int).QuoRem(num, den, new(big.Int))
		if m.Sign() > 0 {
			q.Add(q, big.NewInt(1))
		}
		want := saturate(q)
		if got := r.Transmission(int(n)); int64(got) != want {
			t.Fatalf("Rate(%d).Transmission(%d) = %d, want %d", rate, n, got, want)
		}
		// BytesIn: floor(rate * d / (8 * 10^12)) bytes.
		num.Mul(big.NewInt(rate), big.NewInt(d))
		q.Quo(num, new(big.Int).SetUint64(bitPicoseconds))
		want = saturate(q)
		if got := r.BytesIn(Duration(d)); got != want {
			t.Fatalf("Rate(%d).BytesIn(%d) = %d, want %d", rate, d, got, want)
		}
	})
}

// saturate clamps a non-negative exact result to the int64 range.
func saturate(x *big.Int) int64 {
	if x.IsInt64() {
		return x.Int64()
	}
	return math.MaxInt64
}
