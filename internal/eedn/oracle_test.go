package eedn

import (
	"math"
	"math/rand"
)

// A frozen copy of the dense layer as it was before the bit-plane
// kernels: per-weight trinarization of Hidden on every pass. It is the
// oracle the differential tests hold the compiled kernels to, bit for
// bit. Do not optimize it.

type refDense struct {
	In, Out int
	Hidden  []float64
	Bias    []float64
	Linear  bool

	vel     []float64
	velB    []float64
	lastIn  []float64
	lastPre []float64
	gradW   []float64
	gradB   []float64
}

// newRefDense copies d's parameters into a fresh oracle layer.
func newRefDense(d *Dense) *refDense {
	return &refDense{
		In: d.In, Out: d.Out, Linear: d.Linear,
		Hidden: append([]float64(nil), d.Hidden...),
		Bias:   append([]float64(nil), d.Bias...),
		vel:    make([]float64, len(d.Hidden)),
		velB:   make([]float64, len(d.Bias)),
		gradW:  make([]float64, len(d.Hidden)),
		gradB:  make([]float64, len(d.Bias)),
	}
}

// replicate shares Hidden/Bias with fresh gradients, as Dense does
// for TrainParallel.
func (d *refDense) replicate() *refDense {
	return &refDense{
		In: d.In, Out: d.Out, Linear: d.Linear,
		Hidden: d.Hidden, Bias: d.Bias,
		gradW: make([]float64, len(d.Hidden)),
		gradB: make([]float64, len(d.Bias)),
	}
}

func (d *refDense) preact(x []float64, out []float64) {
	norm := 1 / math.Sqrt(float64(d.In))
	for j := 0; j < d.Out; j++ {
		row := d.Hidden[j*d.In : (j+1)*d.In]
		var s float64
		for i, w := range row {
			switch {
			case w >= TrinaryDeadZone:
				s += x[i]
			case w <= -TrinaryDeadZone:
				s -= x[i]
			}
		}
		out[j] = s*norm + d.Bias[j]
	}
}

func (d *refDense) Forward(x []float64) []float64 {
	out := make([]float64, d.Out)
	d.preact(x, out)
	if !d.Linear {
		for j, v := range out {
			if v >= 0 {
				out[j] = 1
			} else {
				out[j] = 0
			}
		}
	}
	return out
}

func (d *refDense) ForwardTrain(x []float64) []float64 {
	d.lastIn = append(d.lastIn[:0], x...)
	out := make([]float64, d.Out)
	d.preact(x, out)
	d.lastPre = append(d.lastPre[:0], out...)
	if !d.Linear {
		for j, v := range out {
			if v >= 0 {
				out[j] = 1
			} else {
				out[j] = 0
			}
		}
	}
	return out
}

func (d *refDense) Backward(gradOut []float64) []float64 {
	norm := 1 / math.Sqrt(float64(d.In))
	gradIn := make([]float64, d.In)
	for j := 0; j < d.Out; j++ {
		g := gradOut[j]
		if !d.Linear {
			g *= steWindow(d.lastPre[j])
		}
		if g == 0 {
			continue
		}
		d.gradB[j] += g
		row := d.Hidden[j*d.In : (j+1)*d.In]
		gRow := d.gradW[j*d.In : (j+1)*d.In]
		gn := g * norm
		for i := range row {
			gRow[i] += gn * d.lastIn[i]
			switch {
			case row[i] >= TrinaryDeadZone:
				gradIn[i] += gn
			case row[i] <= -TrinaryDeadZone:
				gradIn[i] -= gn
			}
		}
	}
	return gradIn
}

func (d *refDense) BackwardParamsOnly(gradOut []float64) {
	norm := 1 / math.Sqrt(float64(d.In))
	for j := 0; j < d.Out; j++ {
		g := gradOut[j]
		if !d.Linear {
			g *= steWindow(d.lastPre[j])
		}
		if g == 0 {
			continue
		}
		d.gradB[j] += g
		gRow := d.gradW[j*d.In : (j+1)*d.In]
		gn := g * norm
		for i, x := range d.lastIn {
			gRow[i] += gn * x
		}
	}
}

func (d *refDense) Update(lr, momentum float64, batch int) {
	if batch <= 0 {
		batch = 1
	}
	inv := 1 / float64(batch)
	for i := range d.Hidden {
		d.vel[i] = momentum*d.vel[i] - lr*d.gradW[i]*inv
		d.Hidden[i] += d.vel[i]
		if d.Hidden[i] > 1 {
			d.Hidden[i] = 1
		} else if d.Hidden[i] < -1 {
			d.Hidden[i] = -1
		}
		d.gradW[i] = 0
	}
	for j := range d.Bias {
		d.velB[j] = momentum*d.velB[j] - lr*d.gradB[j]*inv
		d.Bias[j] += d.velB[j]
		d.gradB[j] = 0
	}
}

func (d *refDense) mergeGradsFrom(r *refDense) {
	for i, g := range r.gradW {
		d.gradW[i] += g
		r.gradW[i] = 0
	}
	for i, g := range r.gradB {
		d.gradB[i] += g
		r.gradB[i] = 0
	}
}

// refNet is a network of oracle layers with the frozen network loops.
type refNet []*refDense

// newRefNet copies every layer of n, which must be all Dense.
func newRefNet(n *Network) refNet {
	r := make(refNet, len(n.Layers))
	for i, l := range n.Layers {
		r[i] = newRefDense(l.(*Dense))
	}
	return r
}

func (r refNet) Forward(x []float64) []float64 {
	for _, l := range r {
		x = l.Forward(x)
	}
	return x
}

func (r refNet) forwardTrain(x []float64) []float64 {
	for _, l := range r {
		x = l.ForwardTrain(x)
	}
	return x
}

func (r refNet) backward(g []float64) {
	for i := len(r) - 1; i > 0; i-- {
		g = r[i].Backward(g)
	}
	r[0].BackwardParamsOnly(g)
}

func (r refNet) update(lr, momentum float64, batch int) {
	for _, l := range r {
		l.Update(lr, momentum, batch)
	}
}

// Train is the frozen Network.Train loop.
func (r refNet) Train(xs, ys [][]float64, cfg TrainConfig) float64 {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.LRDecay <= 0 {
		cfg.LRDecay = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := rng.Perm(len(xs))
	lr := cfg.LR
	var epochLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for i := len(order) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		epochLoss = 0
		inBatch := 0
		for _, idx := range order {
			out := r.forwardTrain(xs[idx])
			grad := make([]float64, len(out))
			epochLoss += lossAndGrad(cfg.Loss, out, ys[idx], grad)
			r.backward(grad)
			inBatch++
			if inBatch == cfg.BatchSize {
				r.update(lr, cfg.Momentum, inBatch)
				inBatch = 0
			}
		}
		if inBatch > 0 {
			r.update(lr, cfg.Momentum, inBatch)
		}
		epochLoss /= float64(len(xs))
		lr *= cfg.LRDecay
	}
	return epochLoss
}

// TrainParallel is the frozen TrainParallel arithmetic, run on one
// goroutine: worker w's replica takes batch samples w, w+workers, ...,
// and replica gradients merge into the master in worker order. The
// goroutines of TrainParallel only change when each replica's sums
// are computed, not their operands or order, so this serial schedule
// gives the same bits.
func (r refNet) TrainParallel(xs, ys [][]float64, cfg TrainConfig, workers int) float64 {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.LRDecay <= 0 {
		cfg.LRDecay = 1
	}
	replicas := make([]refNet, workers)
	for w := range replicas {
		replicas[w] = make(refNet, len(r))
		for i, l := range r {
			replicas[w][i] = l.replicate()
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := rng.Perm(len(xs))
	lr := cfg.LR
	var epochLoss float64
	losses := make([]float64, workers)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for i := len(order) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		epochLoss = 0
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(order))
			batch := order[start:end]
			for w := 0; w < workers; w++ {
				losses[w] = 0
				rep := replicas[w]
				for k := w; k < len(batch); k += workers {
					idx := batch[k]
					out := rep.forwardTrain(xs[idx])
					grad := make([]float64, len(out))
					losses[w] += lossAndGrad(cfg.Loss, out, ys[idx], grad)
					rep.backward(grad)
				}
			}
			for w := 0; w < workers; w++ {
				epochLoss += losses[w]
				for i, l := range r {
					l.mergeGradsFrom(replicas[w][i])
				}
			}
			r.update(lr, cfg.Momentum, len(batch))
		}
		epochLoss /= float64(len(xs))
		lr *= cfg.LRDecay
	}
	return epochLoss
}

// InferSpiking is the frozen spiking inference: binarize a float
// frame per tick, then a full Forward.
func (r refNet) InferSpiking(x []float64, window int, rng *rand.Rand) []float64 {
	if window <= 0 {
		return r.Forward(x)
	}
	acc := make([]float64, len(r[len(r)-1].Bias))
	frame := make([]float64, len(x))
	for t := 0; t < window; t++ {
		if rng != nil {
			BinarizeStochastic(x, rng, frame)
		} else {
			BinarizeDeterministic(x, t, window, frame)
		}
		out := r.Forward(frame)
		for i, v := range out {
			acc[i] += v
		}
	}
	inv := 1 / float64(window)
	for i := range acc {
		acc[i] *= inv
	}
	return acc
}
