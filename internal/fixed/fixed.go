// Package fixed implements Q-format signed fixed-point arithmetic.
//
// The FPGA HoG baseline in the paper (Advani et al., FPL 2015) computes
// gradients, magnitudes and histogram votes in 16-bit fixed point. This
// package provides the arithmetic used by the internal/hog FPGA model:
// saturating signed values with a configurable number of fractional bits.
package fixed

import (
	"fmt"
	"math"
)

// Q is a signed fixed-point format: Total bits of storage of which Frac
// are fractional. Values are held in an int64 working register and
// saturated to the representable range on every operation, mirroring the
// DSP-slice behaviour of the FPGA implementation.
type Q struct {
	Total int // total bit width including sign, 2..63
	Frac  int // fractional bits, 0..Total-1
}

// Q16_8 is the 16-bit, 8-fractional-bit format used by the FPGA HoG
// datapath model.
var Q16_8 = Q{Total: 16, Frac: 8}

// Valid reports whether the format is well formed.
func (q Q) Valid() bool {
	return q.Total >= 2 && q.Total <= 63 && q.Frac >= 0 && q.Frac < q.Total
}

// Max returns the largest representable raw value.
func (q Q) Max() int64 { return (int64(1) << (q.Total - 1)) - 1 }

// Min returns the smallest representable raw value.
func (q Q) Min() int64 { return -(int64(1) << (q.Total - 1)) }

// One returns the raw representation of 1.0.
func (q Q) One() int64 { return int64(1) << q.Frac }

// Eps returns the value of one least-significant bit.
func (q Q) Eps() float64 { return 1.0 / float64(q.One()) }

// Saturate clamps a raw working value into the representable range.
func (q Q) Saturate(raw int64) int64 {
	if raw > q.Max() {
		return q.Max()
	}
	if raw < q.Min() {
		return q.Min()
	}
	return raw
}

// FromFloat converts a float64 to a saturated raw value, rounding to
// nearest with ties away from zero (the rounding mode of the reference
// RTL). Out-of-range values, including ±Inf, saturate to Max/Min; NaN
// converts to 0 (a NaN gradient contributes a zero vote rather than a
// poisoned rail value).
func (q Q) FromFloat(f float64) int64 {
	if math.IsNaN(f) {
		return 0
	}
	scaled := f * float64(q.One())
	var raw int64
	if scaled >= 0 {
		if scaled > float64(q.Max()) {
			return q.Max()
		}
		raw = int64(scaled + 0.5)
	} else {
		if scaled < float64(q.Min()) {
			return q.Min()
		}
		raw = int64(scaled - 0.5)
	}
	return q.Saturate(raw)
}

// ToFloat converts a raw value back to float64.
func (q Q) ToFloat(raw int64) float64 {
	return float64(raw) / float64(q.One())
}

// Add returns the saturating sum of two raw values.
func (q Q) Add(a, b int64) int64 { return q.Saturate(a + b) }

// Sub returns the saturating difference of two raw values.
func (q Q) Sub(a, b int64) int64 { return q.Saturate(a - b) }

// Mul returns the saturating product of two raw values, renormalized to
// the format (the double-width intermediate is shifted right by Frac).
func (q Q) Mul(a, b int64) int64 {
	prod := a * b
	return q.Saturate(prod >> uint(q.Frac))
}

// MulFloat multiplies a raw value by a float constant (e.g. a cos/sin
// table entry), quantizing the constant to the format first. This models
// ROM coefficient tables in the FPGA datapath.
func (q Q) MulFloat(a int64, c float64) int64 {
	return q.Mul(a, q.FromFloat(c))
}

// Abs returns the saturating absolute value of a raw value.
func (q Q) Abs(a int64) int64 {
	if a < 0 {
		return q.Saturate(-a)
	}
	return a
}

// Sqrt returns the fixed-point square root of a non-negative raw value
// using the non-restoring integer algorithm used in the FPGA magnitude
// unit. Negative inputs return 0.
func (q Q) Sqrt(a int64) int64 {
	if a <= 0 {
		return 0
	}
	// sqrt(raw * 2^Frac) keeps the result in the same Q format:
	// value = raw / 2^Frac, sqrt(value) * 2^Frac = sqrt(raw * 2^Frac).
	x := a << uint(q.Frac)
	var res int64
	// Highest power of four <= x.
	bit := int64(1) << 62
	for bit > x {
		bit >>= 2
	}
	for bit != 0 {
		if x >= res+bit {
			x -= res + bit
			res = (res >> 1) + bit
		} else {
			res >>= 1
		}
		bit >>= 2
	}
	return q.Saturate(res)
}

// Quantize rounds a float64 through the format and back, yielding the
// nearest representable value. It is the composition ToFloat∘FromFloat.
func (q Q) Quantize(f float64) float64 {
	return q.ToFloat(q.FromFloat(f))
}

// String implements fmt.Stringer.
func (q Q) String() string {
	return fmt.Sprintf("Q%d.%d", q.Total-q.Frac, q.Frac)
}

// Atan2Bin returns the orientation bin of the vector (y, x) among nbins
// evenly spaced bins covering [0°, 180°) when signed is false or
// [0°, 360°) when signed is true. The raw values share any common Q
// format.
//
// It is a float model, not a comparison network: it takes the angle of
// (|y|, |x|) with math.Atan2 in float64, unfolds it to the full circle
// by the signs of x and y, folds it to [0°, 180°) when unsigned, and
// floors it into a bin. Hardware resolves the same bins by comparing
// |y|·cos(b) with |x|·sin(b) at each bin boundary b, without division
// or an arctangent (Suleiman et al.); the float angle can differ from
// that only for a vector within float rounding of a boundary. The
// zero vector falls in bin 0.
func Atan2Bin(y, x int64, nbins int, signed bool) int {
	if nbins <= 0 {
		return 0
	}
	ax, ay := x, y
	if ax < 0 {
		ax = -ax
	}
	if ay < 0 {
		ay = -ay
	}
	if ax == 0 && ay == 0 {
		return 0
	}
	deg := math.Atan2(float64(ay), float64(ax)) * 180 / math.Pi // 0..90
	// Unfold to the full circle.
	switch {
	case x >= 0 && y >= 0:
		// deg stays
	case x < 0 && y >= 0:
		deg = 180 - deg
	case x < 0 && y < 0:
		deg = 180 + deg
	default:
		deg = 360 - deg
	}
	span := 360.0
	if !signed {
		span = 180.0
		if deg >= 180 {
			deg -= 180
		}
	}
	bin := int(deg / (span / float64(nbins)))
	if bin >= nbins {
		bin = nbins - 1
	}
	return bin
}
