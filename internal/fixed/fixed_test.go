package fixed

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValid(t *testing.T) {
	cases := []struct {
		q    Q
		want bool
	}{
		{Q{16, 8}, true},
		{Q{2, 0}, true},
		{Q{2, 1}, true},
		{Q{1, 0}, false},
		{Q{16, 16}, false},
		{Q{64, 8}, false},
		{Q{16, -1}, false},
	}
	for _, c := range cases {
		if got := c.q.Valid(); got != c.want {
			t.Errorf("%v.Valid() = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestRoundTripExactValues(t *testing.T) {
	q := Q16_8
	for _, f := range []float64{0, 1, -1, 0.5, -0.5, 2.25, -3.125, 127, -128} {
		if got := q.ToFloat(q.FromFloat(f)); got != f {
			t.Errorf("round trip %v = %v", f, got)
		}
	}
}

func TestSaturation(t *testing.T) {
	q := Q16_8
	if got := q.FromFloat(1e9); got != q.Max() {
		t.Errorf("positive overflow = %d, want Max %d", got, q.Max())
	}
	if got := q.FromFloat(-1e9); got != q.Min() {
		t.Errorf("negative overflow = %d, want Min %d", got, q.Min())
	}
	if got := q.Add(q.Max(), q.One()); got != q.Max() {
		t.Errorf("Add saturation = %d, want %d", got, q.Max())
	}
	if got := q.Sub(q.Min(), q.One()); got != q.Min() {
		t.Errorf("Sub saturation = %d, want %d", got, q.Min())
	}
}

func TestMul(t *testing.T) {
	q := Q16_8
	a := q.FromFloat(2.5)
	b := q.FromFloat(-3.0)
	if got := q.ToFloat(q.Mul(a, b)); got != -7.5 {
		t.Errorf("2.5 * -3.0 = %v, want -7.5", got)
	}
	if got := q.ToFloat(q.Mul(q.One(), q.One())); got != 1.0 {
		t.Errorf("1*1 = %v", got)
	}
}

func TestMulFloatCoefficient(t *testing.T) {
	q := Q16_8
	a := q.FromFloat(10)
	got := q.ToFloat(q.MulFloat(a, math.Cos(0)))
	if got != 10 {
		t.Errorf("10*cos(0) = %v, want 10", got)
	}
	got = q.ToFloat(q.MulFloat(a, 0.5))
	if got != 5 {
		t.Errorf("10*0.5 = %v, want 5", got)
	}
}

func TestSqrt(t *testing.T) {
	q := Q16_8
	cases := []struct{ in, want float64 }{
		{0, 0}, {1, 1}, {4, 2}, {9, 3}, {100, 10}, {2, math.Sqrt2},
	}
	for _, c := range cases {
		got := q.ToFloat(q.Sqrt(q.FromFloat(c.in)))
		if math.Abs(got-c.want) > 2*q.Eps() {
			t.Errorf("Sqrt(%v) = %v, want %v ± %v", c.in, got, c.want, 2*q.Eps())
		}
	}
	if got := q.Sqrt(-5); got != 0 {
		t.Errorf("Sqrt(neg) = %d, want 0", got)
	}
}

func TestSqrtPropertyMonotoneAndBounded(t *testing.T) {
	q := Q16_8
	f := func(v uint16) bool {
		raw := int64(v) // non-negative raw value in range
		r := q.Sqrt(raw)
		// r^2 <= raw < (r+1)^2 in real value terms, within 2 eps slack.
		rv := q.ToFloat(r)
		val := q.ToFloat(raw)
		return rv*rv <= val+3*q.Eps() && math.Abs(rv-math.Sqrt(val)) < 0.02
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantizeIdempotent(t *testing.T) {
	q := Q16_8
	f := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		once := q.Quantize(v)
		twice := q.Quantize(once)
		return once == twice
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRoundingTiesAwayFromZero(t *testing.T) {
	q := Q{Total: 16, Frac: 1} // eps = 0.5
	if got := q.ToFloat(q.FromFloat(0.25)); got != 0.5 {
		t.Errorf("0.25 rounds to %v, want 0.5", got)
	}
	if got := q.ToFloat(q.FromFloat(-0.25)); got != -0.5 {
		t.Errorf("-0.25 rounds to %v, want -0.5", got)
	}
}

func TestAtan2BinUnsigned9(t *testing.T) {
	// 9 bins over 0..180, 20 degrees each.
	cases := []struct {
		y, x int64
		want int
	}{
		{0, 10, 0},     // 0 deg
		{10, 10, 2},    // 45 deg -> bin 2
		{10, 0, 4},     // 90 deg -> bin 4
		{10, -10, 6},   // 135 deg -> bin 6
		{-1, -1000, 0}, // ~180+eps folds to ~0
		{-10, 10, 6},   // 315 folds to 135 -> bin 6
	}
	for _, c := range cases {
		if got := Atan2Bin(c.y, c.x, 9, false); got != c.want {
			t.Errorf("Atan2Bin(%d,%d,9,unsigned) = %d, want %d", c.y, c.x, got, c.want)
		}
	}
}

func TestAtan2BinSigned18(t *testing.T) {
	cases := []struct {
		y, x int64
		want int
	}{
		{0, 10, 0},     // 0
		{10, 0, 4},     // 90 -> bin 4 (90/20)
		{0, -10, 9},    // 180 -> bin 9
		{-10, 0, 13},   // 270 -> bin 13
		{-1, 1000, 17}, // just below 360 -> last bin
	}
	for _, c := range cases {
		if got := Atan2Bin(c.y, c.x, 18, true); got != c.want {
			t.Errorf("Atan2Bin(%d,%d,18,signed) = %d, want %d", c.y, c.x, got, c.want)
		}
	}
}

func TestAtan2BinZeroVector(t *testing.T) {
	if got := Atan2Bin(0, 0, 9, false); got != 0 {
		t.Errorf("zero vector bin = %d, want 0", got)
	}
	if got := Atan2Bin(5, 5, 0, false); got != 0 {
		t.Errorf("nbins=0 bin = %d, want 0", got)
	}
}

func TestAtan2BinMatchesFloatReference(t *testing.T) {
	f := func(y, x int16) bool {
		if x == 0 && y == 0 {
			return true
		}
		got := Atan2Bin(int64(y), int64(x), 18, true)
		deg := math.Atan2(float64(y), float64(x)) * 180 / math.Pi
		if deg < 0 {
			deg += 360
		}
		want := int(deg / 20)
		if want >= 18 {
			want = 17
		}
		// Boundary values may fall either side due to folding; allow
		// adjacency on exact boundaries only.
		if got == want {
			return true
		}
		frac := deg/20 - math.Floor(deg/20)
		return frac < 1e-9 || frac > 1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	if got := Q16_8.String(); got != "Q8.8" {
		t.Errorf("String = %q, want Q8.8", got)
	}
}

func BenchmarkMul(b *testing.B) {
	q := Q16_8
	x := q.FromFloat(1.7)
	y := q.FromFloat(-2.3)
	for i := 0; i < b.N; i++ {
		x = q.Mul(x, y) | 1
	}
	_ = x
}

func BenchmarkSqrt(b *testing.B) {
	q := Q16_8
	v := q.FromFloat(1234.5)
	for i := 0; i < b.N; i++ {
		_ = q.Sqrt(v)
	}
}
