// Package fft implements an iterative radix-2 Cooley-Tukey fast Fourier
// transform over complex128 slices, plus the frequency-domain
// cross-correlation used by the shape-based distance (SBD) of the k-Shape
// paper (Equations 10-12).
//
// The package is self-contained (standard library only) and deterministic.
// Transforms require power-of-two lengths; NextPow2 computes the padding
// target and CrossCorrelate handles padding internally.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"

	"kshape/internal/obs"
)

// NextPow2 returns the smallest power of two >= n. It panics for n <= 0 and
// for n so large that the result would overflow an int.
func NextPow2(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("fft: NextPow2 of non-positive %d", n))
	}
	if n&(n-1) == 0 {
		return n
	}
	shift := bits.Len(uint(n))
	if shift >= bits.UintSize-2 {
		panic(fmt.Sprintf("fft: NextPow2 overflow for %d", n))
	}
	return 1 << shift
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Forward computes the in-place forward DFT of x, whose length must be a
// power of two. It follows the engineering convention: no scaling on the
// forward transform, 1/N scaling on the inverse.
func Forward(x []complex128) {
	transform(x, false)
}

// Inverse computes the in-place inverse DFT of x (length must be a power of
// two), including the 1/N normalization.
func Inverse(x []complex128) {
	transform(x, true)
	n := float64(len(x))
	for i := range x {
		x[i] = complex(real(x[i])/n, imag(x[i])/n)
	}
}

// transform runs the iterative radix-2 Cooley-Tukey butterfly network.
func transform(x []complex128, inverse bool) {
	n := len(x)
	if n == 0 {
		return
	}
	if !IsPow2(n) {
		panic(fmt.Sprintf("fft: length %d is not a power of two", n))
	}
	if inverse {
		obs.Inc(obs.CounterIFFT)
	} else {
		obs.Inc(obs.CounterFFT)
	}
	// Bit-reversal permutation.
	logN := bits.TrailingZeros(uint(n))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse(uint(i)) >> (bits.UintSize - logN))
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := 2 * math.Pi / float64(size) * sign
		wStep := cmplx.Exp(complex(0, step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
}

// ForwardReal transforms a real slice into its complex spectrum of length
// NextPow2(len(x)) (or n if padTo > 0, which must be a power of two >=
// len(x)). The input is zero-padded; x itself is not modified.
func ForwardReal(x []float64, padTo int) []complex128 {
	n := padTo
	if n == 0 {
		n = NextPow2(len(x))
	}
	if n < len(x) || !IsPow2(n) {
		panic(fmt.Sprintf("fft: invalid padTo %d for input length %d", n, len(x)))
	}
	out := make([]complex128, n)
	for i, v := range x {
		out[i] = complex(v, 0)
	}
	Forward(out)
	return out
}

// CrossCorrelate returns the full cross-correlation sequence CC(x, y) of
// length len(x)+len(y)-1, computed as IFFT(FFT(x) * conj(FFT(y))) per
// Equation 12 of the paper. Entry w (0-based) corresponds to lag
// s = w - (len(y) - 1): element w is sum_l x[l] * y[l-s].
//
// For equal-length inputs of length m this matches the paper's CC_w with
// w in {1, ..., 2m-1} (1-based) and shift s = w - m.
//
// If pow2Pad is false the transform length is the exact 2m-1 rounded up only
// as strictly required for radix-2 (i.e. NextPow2(outLen)); the flag exists
// to reproduce the SBD_NoPow2 implementation row of Table 2, where the
// transform length is 2*m (not padded beyond the minimum) — see
// CrossCorrelateLen.
func CrossCorrelate(x, y []float64) []float64 {
	return crossCorrelatePadded(x, y, 0)
}

// CrossCorrelateLen computes the same cross-correlation as CrossCorrelate
// but lets the caller pick the FFT length n (a power of two >= 2m-1). The
// paper's optimized SBD uses NextPow2(2m-1); SBD_NoPow2 in Table 2 models a
// less careful choice of transform size that still yields correct values but
// is slower in aggregate because it cannot reuse power-of-two-friendly sizes.
func CrossCorrelateLen(x, y []float64, n int) []float64 {
	return crossCorrelatePadded(x, y, n)
}

func crossCorrelatePadded(x, y []float64, n int) []float64 {
	if len(x) == 0 || len(y) == 0 {
		return nil
	}
	outLen := len(x) + len(y) - 1
	if n == 0 {
		n = NextPow2(outLen)
	}
	if n < outLen || !IsPow2(n) {
		panic(fmt.Sprintf("fft: invalid transform length %d for output %d", n, outLen))
	}
	fx := ForwardReal(x, n)
	fy := ForwardReal(y, n)
	for i := range fx {
		fx[i] *= cmplx.Conj(fy[i])
	}
	Inverse(fx)
	// The circular correlation places non-negative lags at the front and
	// negative lags at the tail of the buffer; unwrap so that index w
	// corresponds to lag w-(len(y)-1), i.e. most-negative lag first.
	out := make([]float64, outLen)
	my := len(y)
	for lag := -(my - 1); lag <= len(x)-1; lag++ {
		idx := lag
		if idx < 0 {
			idx += n
		}
		out[lag+my-1] = real(fx[idx])
	}
	return out
}

// CrossCorrelateNaive computes the same sequence as CrossCorrelate directly
// in O(len(x)*len(y)) time. It backs the SBD_NoFFT row of Table 2 and the
// correctness tests for the FFT path.
func CrossCorrelateNaive(x, y []float64) []float64 {
	if len(x) == 0 || len(y) == 0 {
		return nil
	}
	outLen := len(x) + len(y) - 1
	out := make([]float64, outLen)
	my := len(y)
	for w := 0; w < outLen; w++ {
		lag := w - (my - 1) // x is shifted right by lag relative to y
		s := 0.0
		for l := 0; l < my; l++ {
			xi := l + lag
			if xi < 0 || xi >= len(x) {
				continue
			}
			s += x[xi] * y[l]
		}
		out[w] = s
	}
	return out
}
