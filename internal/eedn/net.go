package eedn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// Layer is one stage of an Eedn network: a Dense or a Conv2D, as the
// unexported infer method keeps the set closed.
type Layer interface {
	Forward(x []float64) []float64
	ForwardTrain(x []float64) []float64
	Backward(gradOut []float64) []float64
	Update(lr, momentum float64, batch int)
	InDim() int
	OutDim() int
	// infer is Forward into caller-owned buffers: it writes the
	// output for input in into out, marks its nonzero entries in nz,
	// and returns it as the next layer's input.
	infer(in activation, out []float64, nz []uint64) activation
}

// activation is a layer input: the values x and the mask nz of their
// nonzero entries (bit i set exactly when x[i] != 0). spikes records
// that every nonzero entry is 1, so that nz alone is the input; x may
// then be nil.
type activation struct {
	x      []float64
	nz     []uint64
	spikes bool
}

// Network is a stack of Eedn layers trained by backpropagation on the
// hidden weights with trinary deployment, per the Eedn methodology.
// Build it with NewNetwork or Load, which set up its scratch pool.
type Network struct {
	Layers []Layer

	scratch sync.Pool // of *Scratch sized for this network
}

// NewNetwork validates that consecutive layer dimensions agree.
func NewNetwork(layers ...Layer) (*Network, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("eedn: empty network")
	}
	for i := 1; i < len(layers); i++ {
		if layers[i].InDim() != layers[i-1].OutDim() {
			return nil, fmt.Errorf("eedn: layer %d input %d != layer %d output %d",
				i, layers[i].InDim(), i-1, layers[i-1].OutDim())
		}
	}
	n := &Network{Layers: layers}
	n.scratch.New = func() any { return n.NewScratch() }
	return n, nil
}

// InDim returns the network input dimension.
func (n *Network) InDim() int { return n.Layers[0].InDim() }

// OutDim returns the network output dimension.
func (n *Network) OutDim() int { return n.Layers[len(n.Layers)-1].OutDim() }

// Scratch is the working memory of allocation-free inference on one
// network: an input staging buffer, the input's nonzero mask (or
// packed spike frame), every layer's output and its nonzero mask, and
// the spike-count accumulator. A Scratch serves one goroutine at a
// time; GetScratch and PutScratch recycle them for concurrent callers.
type Scratch struct {
	in     []float64
	frame  []uint64
	fframe []float64 // float frame, when the first layer is not Dense
	outs   [][]float64
	nzs    [][]uint64
	acc    []float64
}

// NewScratch returns scratch sized for n.
func (n *Network) NewScratch() *Scratch {
	s := &Scratch{
		in:    make([]float64, n.InDim()),
		frame: make([]uint64, spikeWords(n.InDim())),
		outs:  make([][]float64, len(n.Layers)),
		nzs:   make([][]uint64, len(n.Layers)),
		acc:   make([]float64, n.OutDim()),
	}
	if _, ok := n.Layers[0].(*Dense); !ok {
		s.fframe = make([]float64, n.InDim())
	}
	for i, l := range n.Layers {
		s.outs[i] = make([]float64, l.OutDim())
		s.nzs[i] = make([]uint64, spikeWords(l.OutDim()))
	}
	return s
}

// Input returns s's staging buffer of InDim values, where callers can
// build a network input without allocating. ForwardInto and
// InferSpikingInto accept it as x.
func (s *Scratch) Input() []float64 { return s.in }

// GetScratch takes a Scratch for n from n's pool, allocating one only
// when the pool is empty. Hand it back with PutScratch.
func (n *Network) GetScratch() *Scratch {
	s, _ := n.scratch.Get().(*Scratch)
	return s
}

// PutScratch returns a Scratch taken with GetScratch to n's pool.
func (n *Network) PutScratch(s *Scratch) { n.scratch.Put(s) }

// Forward runs one deployed (trinary-weight) pass.
func (n *Network) Forward(x []float64) []float64 {
	s := n.GetScratch()
	out := append([]float64(nil), n.ForwardInto(s, x)...)
	n.PutScratch(s)
	return out
}

// ForwardInto is Forward with s as working memory and makes no
// allocations. The returned output aliases s and stays valid until s
// is used again.
func (n *Network) ForwardInto(s *Scratch, x []float64) []float64 {
	return n.infer(s, activation{x: x, nz: s.frame, spikes: markNonzero(x, s.frame)})
}

// infer runs every layer, each on the previous one's output.
func (n *Network) infer(s *Scratch, in activation) []float64 {
	for i, l := range n.Layers {
		in = l.infer(in, s.outs[i], s.nzs[i])
	}
	return in.x
}

// forwardTrain runs a cached pass for training.
func (n *Network) forwardTrain(x []float64) []float64 {
	for _, l := range n.Layers {
		x = l.ForwardTrain(x)
	}
	return x
}

// paramsOnlyBackward is implemented by layers that can skip the
// input-gradient computation; the first layer of a network has no
// upstream consumer, which for wide feature inputs saves a large
// fraction of the backward pass.
type paramsOnlyBackward interface {
	BackwardParamsOnly(gradOut []float64)
}

// backward propagates the output gradient down the stack.
func (n *Network) backward(g []float64) {
	for i := len(n.Layers) - 1; i > 0; i-- {
		g = n.Layers[i].Backward(g)
	}
	if p, ok := n.Layers[0].(paramsOnlyBackward); ok {
		p.BackwardParamsOnly(g)
		return
	}
	n.Layers[0].Backward(g)
}

// update applies one optimizer step to every layer.
func (n *Network) update(lr, momentum float64, batch int) {
	for _, l := range n.Layers {
		l.Update(lr, momentum, batch)
	}
}

// Loss selects the training objective.
type Loss int

const (
	// LossMSE is mean squared error against a target vector, used for
	// the Parrot regression onto HoG histograms.
	LossMSE Loss = iota
	// LossHinge is a one-vs-all hinge on +-1 targets, used for the
	// pedestrian classifier.
	LossHinge
)

// TrainConfig controls SGD.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Momentum  float64
	// LRDecay multiplies LR after each epoch (1 = constant).
	LRDecay float64
	Loss    Loss
	Seed    int64
	// Verbose receives per-epoch training loss when non-nil.
	Verbose func(epoch int, loss float64)
}

// DefaultTrainConfig returns sane defaults.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Epochs: 30, BatchSize: 16, LR: 0.05, Momentum: 0.9, LRDecay: 0.97,
		Loss: LossMSE, Seed: 1,
	}
}

// Train fits the network to (xs, ys) and returns the final epoch's
// mean loss.
func (n *Network) Train(xs, ys [][]float64, cfg TrainConfig) (float64, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return 0, fmt.Errorf("eedn: train set sizes %d/%d", len(xs), len(ys))
	}
	for i := range xs {
		if len(xs[i]) != n.InDim() || len(ys[i]) != n.OutDim() {
			return 0, fmt.Errorf("eedn: sample %d dims (%d,%d), want (%d,%d)",
				i, len(xs[i]), len(ys[i]), n.InDim(), n.OutDim())
		}
	}
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
		epochStart := obsEpochStart()
		// Reshuffle.
		for i := len(order) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		epochLoss = 0
		inBatch := 0
		for _, idx := range order {
			out := n.forwardTrain(xs[idx])
			grad := make([]float64, len(out))
			epochLoss += lossAndGrad(cfg.Loss, out, ys[idx], grad)
			n.backward(grad)
			inBatch++
			if inBatch == cfg.BatchSize {
				n.update(lr, cfg.Momentum, inBatch)
				inBatch = 0
			}
		}
		if inBatch > 0 {
			n.update(lr, cfg.Momentum, inBatch)
		}
		epochLoss /= float64(len(xs))
		obsEpochEnd(epoch, epochLoss, len(xs), epochStart)
		if cfg.Verbose != nil {
			cfg.Verbose(epoch, epochLoss)
		}
		lr *= cfg.LRDecay
	}
	return epochLoss, nil
}

// lossAndGrad writes dLoss/dOut into grad and returns the loss value.
func lossAndGrad(loss Loss, out, target, grad []float64) float64 {
	var l float64
	switch loss {
	case LossHinge:
		for i := range out {
			margin := 1 - target[i]*out[i]
			if margin > 0 {
				l += margin
				grad[i] = -target[i]
			} else {
				grad[i] = 0
			}
		}
	default: // LossMSE
		for i := range out {
			d := out[i] - target[i]
			l += d * d
			grad[i] = 2 * d
		}
		l /= float64(len(out))
	}
	return l
}

// BinarizeDeterministic returns the t-th of `window` deterministic
// binary input frames for value vector x in [0,1]: frame t thresholds
// against (t+0.5)/window, so the number of 1-frames over the window is
// round(v*window) (a thermometer rate code).
func BinarizeDeterministic(x []float64, t, window int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(x))
	}
	th := (float64(t) + 0.5) / float64(window)
	for i, v := range x {
		if v >= th {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
	}
	return dst
}

// BinarizeStochastic samples a Bernoulli frame: bit i is 1 with
// probability x[i]. This is the stochastic coding of the paper's
// Parrot front end.
func BinarizeStochastic(x []float64, rng *rand.Rand, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(x))
	}
	for i, v := range x {
		if rng.Float64() < v {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
	}
	return dst
}

// packDeterministic is BinarizeDeterministic packing the frame
// straight into spike words.
func packDeterministic(x []float64, t, window int, dst []uint64) {
	th := (float64(t) + 0.5) / float64(window)
	for k := range dst {
		var w uint64
		for b, v := range x[min(k<<6, len(x)):min((k+1)<<6, len(x))] {
			var spike uint64
			if v >= th {
				spike = 1
			}
			w |= spike << b
		}
		dst[k] = w
	}
}

// packStochastic is BinarizeStochastic packing the frame straight into
// spike words; it draws from rng exactly as BinarizeStochastic does.
func packStochastic(x []float64, rng *rand.Rand, dst []uint64) {
	clear(dst)
	for i, v := range x {
		if rng.Float64() < v {
			dst[i>>6] |= 1 << (i & 63)
		}
	}
}

// InferSpiking runs `window` binary passes over the network with
// stochastic (rng != nil) or deterministic input coding, and returns
// the per-output mean — the spike-count confidence the hardware
// accumulates over the coding window (Sec. 5.2's n-spike options).
func (n *Network) InferSpiking(x []float64, window int, rng *rand.Rand) []float64 {
	s := n.GetScratch()
	out := append([]float64(nil), n.InferSpikingInto(s, x, window, rng)...)
	n.PutScratch(s)
	return out
}

// InferSpikingInto is InferSpiking with s as working memory and makes
// no allocations. Frames are packed straight into spike words for a
// Dense first layer. The returned output aliases s and stays valid
// until s is used again.
func (n *Network) InferSpikingInto(s *Scratch, x []float64, window int, rng *rand.Rand) []float64 {
	if window <= 0 {
		return n.ForwardInto(s, x)
	}
	first, packed := n.Layers[0].(*Dense)
	if packed {
		first.checkIn(len(x))
	}
	acc := s.acc
	clear(acc)
	for t := 0; t < window; t++ {
		var out []float64
		spikes := activation{nz: s.frame, spikes: true}
		switch {
		case packed && rng != nil:
			packStochastic(x, rng, s.frame)
			out = n.infer(s, spikes)
		case packed:
			packDeterministic(x, t, window, s.frame)
			out = n.infer(s, spikes)
		case rng != nil:
			out = n.infer(s, activation{x: BinarizeStochastic(x, rng, s.fframe[:len(x)])})
		default:
			out = n.infer(s, activation{x: BinarizeDeterministic(x, t, window, s.fframe[:len(x)])})
		}
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

// Dequantize clamps and rounds x to the representable values of an
// n-spike code, modeling the information loss of a spiking link
// without running passes.
func Dequantize(x []float64, window int) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
		out[i] = math.Round(v*float64(window)) / float64(window)
	}
	return out
}
