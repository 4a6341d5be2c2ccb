package irn

import "testing"

// FuzzPSNArithmetic checks Add and Diff, the one copy of 24-bit PSN
// arithmetic (transport uses them too), against int64 arithmetic modulo
// 2^24, on inputs that may carry bits above the 24th: Add must equal
// (a+n) mod 2^24, Diff the residue of a-b in (-2^23, 2^23], and adding
// Diff(a, b) back to b must give a. The seed corpus in
// testdata/fuzz/FuzzPSNArithmetic holds the wrap, the ambiguous
// midpoint, its neighbours and inputs with high bits set; plain
// `go test` replays it.
func FuzzPSNArithmetic(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b, n uint32) {
		const mod = 1 << 24
		if got, want := Add(a, n), uint32((int64(a)+int64(n))%mod); got != want {
			t.Fatalf("Add(%d, %d) = %d, want %d", a, n, got, want)
		}
		want := ((int64(a)-int64(b))%mod + mod) % mod
		if want > mod/2 {
			want -= mod
		}
		d := Diff(a, b)
		if int64(d) != want {
			t.Fatalf("Diff(%d, %d) = %d, want %d", a, b, d, want)
		}
		if got := Add(b, uint32(d)); got != uint32(int64(a)%mod) {
			t.Fatalf("Add(%d, Diff(%d, %d)) = %d, want %d", b, a, b, got, int64(a)%mod)
		}
	})
}
