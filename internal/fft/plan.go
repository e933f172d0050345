package fft

import (
	"errors"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// ErrSize is returned when a plan is requested for an unsupported size or a
// planned transform is handed a buffer of the wrong length.
var ErrSize = errors.New("fft: bad transform size")

// Plan holds everything a radix-2 transform of one fixed power-of-two size
// needs beyond the data itself: the bit-reversal permutation and the
// twiddle-factor table, both computed once at construction. A Plan performs
// its transforms fully in place in caller-owned buffers, so steady-state use
// allocates nothing. Plans are immutable after construction and safe for
// concurrent use.
//
// Use a Plan on hot paths that transform the same size repeatedly (the
// streaming refresh engine); the one-shot helpers Forward, Inverse and
// ForwardReal remain for occasional transforms of varying sizes.
type Plan struct {
	n    int
	logN int
	// rev[i] is the bit-reversed index of i; only entries with rev[i] > i
	// are swapped, but the full table keeps the permutation loop branch-lean.
	rev []int32
	// twF and twI hold the forward and inverse twiddles stage by stage,
	// contiguously: the stage with butterfly span `size` owns size/2
	// consecutive entries exp(∓2*pi*i*k/size), k in [0, size/2), for sizes
	// 4, 8, ..., n in order (the size-2 stage needs no twiddles — its only
	// factor is 1). Contiguous per-stage layout keeps the inner butterfly
	// loop's table reads sequential, and the split tables keep the inverse
	// path free of per-butterfly conjugation.
	twF, twI []complex128
}

// NewPlan builds a Plan for transforms of length n, which must be a power
// of two >= 1.
func NewPlan(n int) (*Plan, error) {
	if n < 1 || n&(n-1) != 0 {
		return nil, ErrSize
	}
	p := &Plan{n: n, logN: bits.TrailingZeros(uint(n))}
	p.rev = make([]int32, n)
	if n > 1 {
		for i := 0; i < n; i++ {
			p.rev[i] = int32(bits.Reverse(uint(i)) >> (bits.UintSize - p.logN))
		}
		if n > 2 {
			p.twF = make([]complex128, n-2)
			p.twI = make([]complex128, n-2)
			off := 0
			for size := 4; size <= n; size <<= 1 {
				half := size >> 1
				for k := 0; k < half; k++ {
					angle := -2 * math.Pi * float64(k) / float64(size)
					s, c := math.Sincos(angle)
					p.twF[off+k] = complex(c, s)
					p.twI[off+k] = complex(c, -s)
				}
				off += half
			}
		}
	}
	return p, nil
}

// Size returns the transform length the plan was built for.
func (p *Plan) Size() int { return p.n }

// Forward runs the in-place DFT of buf, which must have length Size.
func (p *Plan) Forward(buf []complex128) {
	if len(buf) != p.n {
		panic("fft: Plan.Forward buffer length mismatch")
	}
	p.transform(buf, false)
}

// Inverse runs the in-place inverse DFT of buf (normalized by 1/n), which
// must have length Size.
func (p *Plan) Inverse(buf []complex128) {
	if len(buf) != p.n {
		panic("fft: Plan.Inverse buffer length mismatch")
	}
	p.transform(buf, true)
	inv := complex(1/float64(p.n), 0)
	for i := range buf {
		buf[i] *= inv
	}
}

// transform is the table-driven radix-2 kernel. Unlike the historical
// kernel, which rebuilt each stage's twiddles by repeated complex
// multiplication (accumulating rounding error and costing a multiply per
// butterfly), every twiddle here is a sequential table load, and the
// size-2 stage runs multiply-free.
func (p *Plan) transform(buf []complex128, inverse bool) {
	n := p.n
	if n <= 1 {
		return
	}
	for i, r := range p.rev {
		if int(r) > i {
			buf[i], buf[r] = buf[r], buf[i]
		}
	}
	// Size-2 stage: the only twiddle is 1.
	for i := 0; i < n; i += 2 {
		a, b := buf[i], buf[i+1]
		buf[i], buf[i+1] = a+b, a-b
	}
	table := p.twF
	if inverse {
		table = p.twI
	}
	off := 0
	for size := 4; size <= n; size <<= 1 {
		half := size >> 1
		tw := table[off : off+half]
		for start := 0; start < n; start += size {
			lo := buf[start : start+half : start+half]
			hi := buf[start+half : start+size : start+size]
			for k := 0; k < half; k++ {
				a := lo[k]
				b := hi[k] * tw[k]
				lo[k] = a + b
				hi[k] = a - b
			}
		}
		off += half
	}
}

// RealPlan transforms real-valued series of one fixed even power-of-two
// length n by packing them into a half-size complex transform — the
// standard two-for-one real FFT. Forward produces the non-redundant half
// spectrum X[0..n/2]; Inverse reconstructs a real series from such a half
// spectrum. Both work in place in caller-owned buffers with no steady-state
// allocation. The pair is the Wiener–Khinchin workhorse of acf.Analyzer:
// a real forward, a pointwise power spectrum, and a real inverse.
type RealPlan struct {
	n    int   // real series length
	half *Plan // complex plan of size n/2
	// wr[k] = exp(-2*pi*i*k/n) for k in [0, n/2]: the pack/unpack twiddles.
	wr []complex128
}

// NewRealPlan builds a RealPlan for real series of length n, which must be
// a power of two >= 2.
func NewRealPlan(n int) (*RealPlan, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, ErrSize
	}
	half, err := NewPlan(n / 2)
	if err != nil {
		return nil, err
	}
	p := &RealPlan{n: n, half: half}
	p.wr = make([]complex128, n/2+1)
	for k := range p.wr {
		angle := -2 * math.Pi * float64(k) / float64(n)
		s, c := math.Sincos(angle)
		p.wr[k] = complex(c, s)
	}
	return p, nil
}

// Size returns the real series length the plan was built for.
func (p *RealPlan) Size() int { return p.n }

// SpectrumLen returns the length of the half spectrum, n/2 + 1.
func (p *RealPlan) SpectrumLen() int { return p.n/2 + 1 }

// Forward computes the DFT of the real series src into dst as the
// non-redundant half spectrum X[0..n/2] (the full spectrum satisfies
// X[n-k] = cmplx.Conj(X[k])). src must have length Size and dst at least
// SpectrumLen; dst doubles as the packing scratch, so no other buffer is
// touched.
func (p *RealPlan) Forward(dst []complex128, src []float64) {
	if len(src) != p.n || len(dst) < p.n/2+1 {
		panic("fft: RealPlan.Forward buffer length mismatch")
	}
	h := p.n / 2
	z := dst[:h]
	for j := 0; j < h; j++ {
		z[j] = complex(src[2*j], src[2*j+1])
	}
	p.half.transform(z, false)

	// Unpack Z (the half-size transform of the even/odd interleave) into
	// the half spectrum. Entries k and h-k are consumed pairwise before
	// being overwritten, so the unpack is in place.
	z0 := z[0]
	dst[0] = complex(real(z0)+imag(z0), 0)
	dst[h] = complex(real(z0)-imag(z0), 0)
	for k := 1; k <= h/2; k++ {
		zk, zr := dst[k], dst[h-k]
		e := (zk + cmplx.Conj(zr)) * complex(0.5, 0)   // even part
		o := (zk - cmplx.Conj(zr)) * complex(0, -0.5)  // odd part
		or := (zr - cmplx.Conj(zk)) * complex(0, -0.5) // odd part at h-k
		er := cmplx.Conj(e)                            // even part at h-k
		dst[k] = e + p.wr[k]*o
		if k != h-k {
			dst[h-k] = er + p.wr[h-k]*or
		}
	}
}

// Inverse reconstructs into dst the real series whose DFT half spectrum is
// spec[0..n/2] (spec[0] and spec[n/2] must be real for the result to be
// exact; imaginary parts there are ignored by construction of the packing).
// The transform is normalized by 1/n, so Inverse(Forward(x)) == x up to
// rounding. spec is clobbered: it is used as the working buffer. dst must
// have length Size and spec at least SpectrumLen.
func (p *RealPlan) Inverse(dst []float64, spec []complex128) {
	if len(dst) != p.n || len(spec) < p.n/2+1 {
		panic("fft: RealPlan.Inverse buffer length mismatch")
	}
	h := p.n / 2
	// Repack the half spectrum into the half-size complex spectrum Z,
	// inverting the Forward unpack. Pairs (k, h-k) are combined in place.
	x0, xh := real(spec[0]), real(spec[h])
	spec[0] = complex((x0+xh)/2, (x0-xh)/2)
	for k := 1; k <= h/2; k++ {
		xk, xr := spec[k], spec[h-k]
		e := (xk + cmplx.Conj(xr)) * complex(0.5, 0)
		o := (xk - cmplx.Conj(xr)) * complex(0.5, 0) * cmplx.Conj(p.wr[k])
		er := cmplx.Conj(e)
		or := (xr - cmplx.Conj(xk)) * complex(0.5, 0) * cmplx.Conj(p.wr[h-k])
		spec[k] = e + complex(0, 1)*o
		if k != h-k {
			spec[h-k] = er + complex(0, 1)*or
		}
	}
	z := spec[:h]
	p.half.transform(z, true)
	scale := 1 / float64(h)
	for j := 0; j < h; j++ {
		dst[2*j] = real(z[j]) * scale
		dst[2*j+1] = imag(z[j]) * scale
	}
}

// planCache memoizes Plans per size for the one-shot package helpers, so
// repeated Forward/Inverse calls of a common size reuse one twiddle table.
// Plans are immutable, so sharing across goroutines is safe.
var planCache sync.Map // int -> *Plan

// realPlanCache memoizes RealPlans per size for RealPlanFor.
var realPlanCache sync.Map // int -> *RealPlan

// RealPlanFor returns the process-wide RealPlan for real series of length
// n, which must be a power of two >= 2. RealPlans are immutable, so every
// caller transforming one size (each stream operator's ACF engine) shares
// one set of twiddle and bit-reversal tables instead of holding its own.
func RealPlanFor(n int) (*RealPlan, error) {
	if v, ok := realPlanCache.Load(n); ok {
		return v.(*RealPlan), nil
	}
	p, err := NewRealPlan(n)
	if err != nil {
		return nil, err
	}
	v, _ := realPlanCache.LoadOrStore(n, p)
	return v.(*RealPlan), nil
}

// planFor returns the cached Plan for power-of-two size n.
func planFor(n int) *Plan {
	if v, ok := planCache.Load(n); ok {
		return v.(*Plan)
	}
	p, err := NewPlan(n)
	if err != nil {
		panic(err) // callers guarantee power-of-two n
	}
	v, _ := planCache.LoadOrStore(n, p)
	return v.(*Plan)
}
