package eedn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Differential tests of the bit-plane kernels against the frozen
// per-weight oracle in oracle_test.go. Every comparison is on float
// bits, not values.

// kernelWidths are the fan-ins the kernels must handle: below, at and
// across word boundaries, the parrot's 100 and 512, and the 7560 of a
// HoG window descriptor.
var kernelWidths = []int{1, 63, 64, 65, 100, 512, 7560}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func requireSame(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if !sameBits(got, want) {
		for i := range got {
			if i < len(want) && math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: element %d is %v, oracle %v (len %d/%d)", what, i, got[i], want[i], len(got), len(want))
			}
		}
		t.Fatalf("%s: length %d, oracle %d", what, len(got), len(want))
	}
}

// edgeWeights are hidden values on and next to the dead-zone
// boundaries, where a plane bit flips.
var edgeWeights = []float64{
	TrinaryDeadZone, -TrinaryDeadZone,
	math.Nextafter(TrinaryDeadZone, 0), math.Nextafter(-TrinaryDeadZone, 0),
	math.Nextafter(TrinaryDeadZone, 1), math.Nextafter(-TrinaryDeadZone, -1),
	0, math.Copysign(0, -1), 1, -1,
}

// randomDense builds an in x out layer whose hidden weights mix the
// uniform initialization with dead-zone edge values and whose biases
// straddle the firing threshold.
func randomDense(in, out int, linear bool, rng *rand.Rand) *Dense {
	d := NewDense(in, out, rng)
	d.Linear = linear
	for i := range d.Hidden {
		if rng.Intn(4) == 0 {
			d.Hidden[i] = edgeWeights[rng.Intn(len(edgeWeights))]
		}
	}
	for j := range d.Bias {
		d.Bias[j] = (rng.Float64()*2 - 1) * 0.5
	}
	d.RebuildPlanes()
	return d
}

// floatInput mixes values in [0, 1] with negatives, exact 0/1 and
// signed zeros, so the float kernel is never handed a pure spike
// frame by accident.
func floatInput(n int, rng *rand.Rand) []float64 {
	x := make([]float64, n)
	for i := range x {
		switch rng.Intn(8) {
		case 0:
			x[i] = 0
		case 1:
			x[i] = math.Copysign(0, -1)
		case 2:
			x[i] = 1
		case 3:
			x[i] = -rng.Float64()
		default:
			x[i] = rng.Float64() * 2
		}
	}
	x[rng.Intn(n)] = 0.25 // at least one non-spike value
	return x
}

// spikeInput is a 0/1 frame of the given firing density.
func spikeInput(n int, density float64, rng *rand.Rand) []float64 {
	x := make([]float64, n)
	for i := range x {
		if rng.Float64() < density {
			x[i] = 1
		}
	}
	return x
}

// randomGrad is an output gradient with some exact zeros.
func randomGrad(n int, rng *rand.Rand) []float64 {
	g := make([]float64, n)
	for i := range g {
		if rng.Intn(5) != 0 {
			g[i] = rng.NormFloat64()
		}
	}
	return g
}

// checkDense drives d and its oracle copy through forward passes on x,
// a training pass, gradient accumulation and Update steps, comparing
// every output and every parameter and gradient bit.
func checkDense(t *testing.T, d *Dense, x []float64, rng *rand.Rand) {
	t.Helper()
	ref := newRefDense(d)
	requireSame(t, "Forward", d.Forward(x), ref.Forward(x))
	xb := make([]uint64, spikeWords(d.In))
	if markNonzero(x, xb) {
		out := make([]float64, d.Out)
		d.infer(activation{nz: xb, spikes: true}, out, make([]uint64, spikeWords(d.Out)))
		requireSame(t, "spike kernel", out, ref.Forward(x))
	}
	for step := 0; step < 3; step++ {
		requireSame(t, "ForwardTrain", d.ForwardTrain(x), ref.ForwardTrain(x))
		g := randomGrad(d.Out, rng)
		if step%2 == 0 {
			requireSame(t, "Backward", d.Backward(g), ref.Backward(g))
		} else {
			d.BackwardParamsOnly(g)
			ref.BackwardParamsOnly(g)
		}
		requireSame(t, "gradW", d.gradW, ref.gradW)
		requireSame(t, "gradB", d.gradB, ref.gradB)
		lr := 0.05 + rng.Float64()
		d.Update(lr, 0.9, 1+step)
		ref.Update(lr, 0.9, 1+step)
		requireSame(t, "Hidden after Update", d.Hidden, ref.Hidden)
		requireSame(t, "Bias after Update", d.Bias, ref.Bias)
		requireSame(t, "Forward after Update", d.Forward(x), ref.Forward(x))
	}
}

func TestDenseKernelsMatchOracle(t *testing.T) {
	for _, in := range kernelWidths {
		out := 9
		if in > 1000 {
			out = 5
		}
		for _, linear := range []bool{false, true} {
			t.Run(fmt.Sprintf("in%d/linear=%v", in, linear), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(in)*7 + 1))
				d := randomDense(in, out, linear, rng)
				checkDense(t, d, floatInput(in, rng), rng)
				sparse := floatInput(in, rng)
				for i := range sparse {
					if rng.Intn(4) != 0 {
						sparse[i] = 0
					}
				}
				checkDense(t, randomDense(in, out, linear, rng), sparse, rng)
				for _, density := range []float64{0, 0.1, 0.5, 1} {
					d := randomDense(in, out, linear, rng)
					checkDense(t, d, spikeInput(in, density, rng), rng)
				}
			})
		}
	}
}

// TestDenseNonFiniteInputsMatchOracle covers inputs no descriptor
// carries: the float kernel performs the oracle's additions in the
// oracle's order, so even NaN payloads and infinities agree, and the
// weight gradient keeps the oracle's gn*0 terms when gn is not finite.
func TestDenseNonFiniteInputsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := randomDense(70, 6, true, rng)
	x := floatInput(70, rng)
	x[3], x[40], x[69] = math.Inf(1), math.NaN(), math.Inf(-1)
	// Rows 0 and 1 add the NaN with each sign and skip the infinities.
	for j := 0; j < 2; j++ {
		d.Hidden[j*70+3], d.Hidden[j*70+69] = 0, 0
	}
	d.Hidden[40], d.Hidden[70+40] = -1, 1
	d.RebuildPlanes()
	ref := newRefDense(d)
	requireSame(t, "Forward", d.Forward(x), ref.Forward(x))
	g := []float64{math.Inf(1), 0, 1, math.NaN(), -2, 0}
	requireSame(t, "ForwardTrain", d.ForwardTrain(x), ref.ForwardTrain(x))
	requireSame(t, "Backward", d.Backward(g), ref.Backward(g))
	requireSame(t, "gradW", d.gradW, ref.gradW)
	requireSame(t, "ForwardTrain zeros", d.ForwardTrain(make([]float64, 70)), ref.ForwardTrain(make([]float64, 70)))
	d.BackwardParamsOnly(g)
	ref.BackwardParamsOnly(g)
	requireSame(t, "gradW spikes", d.gradW, ref.gradW)
}

// TestUpdateLeavesNoStalePlane mutates weights only through Update and
// checks, after every step, that the planes equal a fresh compile of
// Hidden and that passes match the oracle reading Hidden directly.
func TestUpdateLeavesNoStalePlane(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := randomDense(130, 12, false, rng)
	ref := newRefDense(d)
	x := floatInput(130, rng)
	for step := 0; step < 20; step++ {
		d.ForwardTrain(x)
		ref.ForwardTrain(x)
		g := randomGrad(12, rng)
		for j := range g {
			g[j] *= 20 // large steps flip many weights across the dead zone
		}
		d.Backward(g)
		ref.Backward(g)
		d.Update(0.5, 0.9, 1)
		ref.Update(0.5, 0.9, 1)
		pos := append([]uint64(nil), d.pos...)
		neg := append([]uint64(nil), d.neg...)
		d.RebuildPlanes()
		for i := range pos {
			if pos[i] != d.pos[i] || neg[i] != d.neg[i] {
				t.Fatalf("step %d: plane word %d stale after Update", step, i)
			}
		}
		requireSame(t, "Forward after Update", d.Forward(x), ref.Forward(x))
	}
}

// randomNet builds an all-Dense threshold stack with a linear head.
func randomNet(t testing.TB, widths []int, rng *rand.Rand) *Network {
	t.Helper()
	layers := make([]Layer, len(widths)-1)
	for i := range layers {
		layers[i] = randomDense(widths[i], widths[i+1], i == len(layers)-1, rng)
	}
	n, err := NewNetwork(layers...)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNetworkInferenceMatchesOracle(t *testing.T) {
	for _, widths := range [][]int{{1, 3, 2}, {100, 512, 18}, {7560, 65, 64, 1}, {63, 64, 63, 5}} {
		t.Run(fmt.Sprint(widths), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(widths[0])))
			n := randomNet(t, widths, rng)
			ref := newRefNet(n)
			s := n.NewScratch()
			for trial := 0; trial < 3; trial++ {
				x := floatInput(widths[0], rng)
				for i := range x {
					x[i] = math.Abs(x[i]) / 2 // coding expects [0, 1]
				}
				requireSame(t, "Forward", n.Forward(x), ref.Forward(x))
				requireSame(t, "ForwardInto", n.ForwardInto(s, x), ref.Forward(x))
				for _, window := range []int{0, 1, 8} {
					requireSame(t, "InferSpiking", n.InferSpiking(x, window, nil), ref.InferSpiking(x, window, nil))
					requireSame(t, "InferSpikingInto", n.InferSpikingInto(s, x, window, nil), ref.InferSpiking(x, window, nil))
					seed := rng.Int63()
					got := n.InferSpikingInto(s, x, window, rand.New(rand.NewSource(seed)))
					want := ref.InferSpiking(x, window, rand.New(rand.NewSource(seed)))
					requireSame(t, "InferSpiking stochastic", got, want)
				}
			}
		})
	}
}

// trainSet is a random regression/classification set for whole-run
// comparisons.
func trainSet(n, in, out int, rng *rand.Rand) (xs, ys [][]float64) {
	for i := 0; i < n; i++ {
		x := floatInput(in, rng)
		for j := range x {
			x[j] = math.Abs(x[j]) / 2
		}
		y := make([]float64, out)
		for j := range y {
			y[j] = float64(2*rng.Intn(2) - 1)
		}
		xs = append(xs, x)
		ys = append(ys, y)
	}
	return xs, ys
}

func requireSameNet(t *testing.T, n *Network, ref refNet) {
	t.Helper()
	for i, l := range n.Layers {
		d := l.(*Dense)
		requireSame(t, fmt.Sprintf("layer %d Hidden", i), d.Hidden, ref[i].Hidden)
		requireSame(t, fmt.Sprintf("layer %d Bias", i), d.Bias, ref[i].Bias)
	}
}

func TestTrainMatchesOracle(t *testing.T) {
	for _, c := range []struct {
		widths []int
		loss   Loss
	}{
		{[]int{100, 64, 18}, LossHinge},
		{[]int{65, 33, 33, 1}, LossHinge},
		{[]int{64, 20, 3}, LossMSE},
	} {
		t.Run(fmt.Sprint(c.widths), func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			n := randomNet(t, c.widths, rng)
			ref := newRefNet(n)
			xs, ys := trainSet(40, c.widths[0], c.widths[len(c.widths)-1], rng)
			cfg := DefaultTrainConfig()
			cfg.Epochs, cfg.BatchSize, cfg.Loss, cfg.LR = 4, 7, c.loss, 0.3
			loss, err := n.Train(xs, ys, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want := ref.Train(xs, ys, cfg); math.Float64bits(loss) != math.Float64bits(want) {
				t.Fatalf("loss %v, oracle %v", loss, want)
			}
			requireSameNet(t, n, ref)
			x := xs[0]
			requireSame(t, "Forward after Train", n.Forward(x), ref.Forward(x))
		})
	}
}

func TestTrainParallelMatchesOracle(t *testing.T) {
	withProcs(t, 3)
	rng := rand.New(rand.NewSource(8))
	n := randomNet(t, []int{65, 40, 40, 1}, rng)
	ref := newRefNet(n)
	xs, ys := trainSet(45, 65, 1, rng)
	cfg := DefaultTrainConfig()
	cfg.Epochs, cfg.BatchSize, cfg.Loss, cfg.LR = 3, 10, LossHinge, 0.3
	loss, err := n.TrainParallel(xs, ys, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := ref.TrainParallel(xs, ys, cfg, 3); math.Float64bits(loss) != math.Float64bits(want) {
		t.Fatalf("loss %v, oracle %v", loss, want)
	}
	requireSameNet(t, n, ref)
	requireSame(t, "Forward after TrainParallel", n.Forward(xs[1]), ref.Forward(xs[1]))
}

// FuzzDenseKernelEquivalence holds one Dense layer, built from the
// fuzzed shape and seed, to the oracle on float or spike input,
// through training and Update steps.
func FuzzDenseKernelEquivalence(f *testing.F) {
	f.Add(uint16(1), uint8(1), int64(1), false, false)
	f.Add(uint16(64), uint8(7), int64(2), true, false)
	f.Add(uint16(65), uint8(3), int64(3), true, true)
	f.Add(uint16(512), uint8(18), int64(4), false, true)
	f.Fuzz(func(t *testing.T, in uint16, out uint8, seed int64, spikes, linear bool) {
		nIn, nOut := int(in%2048)+1, int(out%32)+1
		rng := rand.New(rand.NewSource(seed))
		d := randomDense(nIn, nOut, linear, rng)
		x := floatInput(nIn, rng)
		if spikes {
			x = spikeInput(nIn, rng.Float64(), rng)
		}
		checkDense(t, d, x, rng)
	})
}
