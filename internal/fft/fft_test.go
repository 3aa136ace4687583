package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// dftNaive is the O(n^2) reference DFT used to validate the fast transform.
func dftNaive(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for r := 0; r < n; r++ {
			ang := -2 * math.Pi * float64(r) * float64(k) / float64(n)
			s += x[r] * cmplx.Exp(complex(0, ang))
		}
		out[k] = s
	}
	return out
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 7: 8, 8: 8, 9: 16, 1023: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestNextPow2PanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NextPow2(%d) should panic", n)
				}
			}()
			NextPow2(n)
		}()
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 64, 4096} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -4, 3, 6, 12, 1000} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

func TestForwardMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := dftNaive(x)
		got := make([]complex128, n)
		copy(got, x)
		Forward(got)
		for k := range want {
			if cmplx.Abs(got[k]-want[k]) > 1e-8*float64(n) {
				t.Fatalf("n=%d: Forward[%d] = %v, want %v", n, k, got[k], want[k])
			}
		}
	}
}

func TestForwardInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 8, 128, 1024} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		y := make([]complex128, n)
		copy(y, x)
		Forward(y)
		Inverse(y)
		for i := range x {
			if cmplx.Abs(y[i]-x[i]) > 1e-9*float64(n) {
				t.Fatalf("n=%d: round trip[%d] = %v, want %v", n, i, y[i], x[i])
			}
		}
	}
}

func TestForwardPanicsOnNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Forward on length 3 should panic")
		}
	}()
	Forward(make([]complex128, 3))
}

func TestParsevalProperty(t *testing.T) {
	// sum |x|^2 == (1/n) sum |X|^2 for the unscaled forward transform.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64
		x := make([]complex128, n)
		var tx float64
		for i := range x {
			x[i] = complex(rng.NormFloat64(), 0)
			tx += real(x[i]) * real(x[i])
		}
		Forward(x)
		var tf float64
		for _, v := range x {
			tf += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(tx-tf/float64(n)) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCrossCorrelateMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, m := range []int{1, 2, 5, 17, 64, 100, 257} {
		x := make([]float64, m)
		y := make([]float64, m)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		fast := CrossCorrelate(x, y)
		slow := CrossCorrelateNaive(x, y)
		if len(fast) != 2*m-1 || len(slow) != 2*m-1 {
			t.Fatalf("m=%d: lengths %d, %d; want %d", m, len(fast), len(slow), 2*m-1)
		}
		for w := range slow {
			if math.Abs(fast[w]-slow[w]) > 1e-7 {
				t.Fatalf("m=%d: CC[%d] = %v (fft) vs %v (naive)", m, w, fast[w], slow[w])
			}
		}
	}
}

func TestCrossCorrelateUnequalLengths(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{1, 1}
	fast := CrossCorrelate(x, y)
	slow := CrossCorrelateNaive(x, y)
	if len(fast) != len(x)+len(y)-1 {
		t.Fatalf("len = %d", len(fast))
	}
	for w := range slow {
		if math.Abs(fast[w]-slow[w]) > 1e-9 {
			t.Fatalf("CC[%d] = %v vs %v", w, fast[w], slow[w])
		}
	}
}

func TestCrossCorrelatePeakAtKnownShift(t *testing.T) {
	// y is x delayed by 3 samples; the correlation peak must sit at lag +3,
	// i.e. index (m-1)+3.
	m := 32
	x := make([]float64, m)
	x[5] = 1 // impulse
	y := make([]float64, m)
	y[8] = 1                   // impulse delayed by 3
	cc := CrossCorrelate(y, x) // sum x-shifted: peak where y[l+k] matches x[l]
	best, bestW := math.Inf(-1), -1
	for w, v := range cc {
		if v > best {
			best, bestW = v, w
		}
	}
	if lag := bestW - (m - 1); lag != 3 {
		t.Errorf("peak at lag %d, want 3", lag)
	}
}

func TestCrossCorrelateLenCustomPadding(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{4, 3, 2, 1}
	ref := CrossCorrelateNaive(x, y)
	for _, n := range []int{8, 16, 32} {
		got := CrossCorrelateLen(x, y, n)
		for w := range ref {
			if math.Abs(got[w]-ref[w]) > 1e-9 {
				t.Fatalf("padding %d: CC[%d] = %v, want %v", n, w, got[w], ref[w])
			}
		}
	}
}

func TestCrossCorrelateLenRejectsBadPadding(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for transform length below 2m-1")
		}
	}()
	CrossCorrelateLen([]float64{1, 2, 3}, []float64{1, 2, 3}, 4)
}

func TestForwardRealAgainstComplex(t *testing.T) {
	x := []float64{1, -1, 2, 0.5, 3}
	n := NextPow2(len(x))
	got := ForwardReal(x, 0)
	want := make([]complex128, n)
	for i, v := range x {
		want[i] = complex(v, 0)
	}
	Forward(want)
	for i := range want {
		if cmplx.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("ForwardReal[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
