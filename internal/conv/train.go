package conv

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
	"github.com/apdeepsense/apdeepsense/internal/train"
)

// Sample is one supervised time-series example.
type Sample struct {
	X *Seq
	Y tensor.Vector
}

// TrainConfig controls Train.
type TrainConfig struct {
	Epochs       int
	BatchSize    int
	LearningRate float64
	Seed         int64
	Loss         train.Loss
	// Logf, when non-nil, receives one line per epoch.
	Logf func(format string, args ...any)
}

func (c TrainConfig) validate(n int) error {
	if c.Epochs < 1 || c.BatchSize < 1 || c.BatchSize > n || !(c.LearningRate > 0) || math.IsInf(c.LearningRate, 1) {
		return fmt.Errorf("epochs=%d batch=%d lr=%v over %d samples: %w",
			c.Epochs, c.BatchSize, c.LearningRate, n, ErrConfig)
	}
	if c.Loss == nil {
		return fmt.Errorf("nil loss: %w", ErrConfig)
	}
	return nil
}

// convGrads accumulates one layer's gradients.
type convGrads struct {
	w []float64
	b []float64
}

// trace records one sample's stochastic conv-stack forward for backprop.
type trace struct {
	inputs []*Seq      // per conv layer: the layer's input sequence
	pres   []*Seq      // per conv layer: pre-activations
	masks  [][]float64 // per conv layer: channel masks (0/1)
}

// trainer holds Train's scratch: the dense head's shared batched pass and
// the gradients of one minibatch.
type trainer struct {
	n      *Net
	head   *nn.Pass
	dOut   *tensor.Matrix // batch×head output dLoss/dOutput
	gIn    *tensor.Matrix // batch×pooled dLoss/dPooled
	traces []trace
	cg     []convGrads
	hgW    []*tensor.Matrix
	hgB    []tensor.Vector
}

func newTrainer(n *Net, batch int) *trainer {
	headLayers := n.head.Layers()
	tr := &trainer{
		n:      n,
		head:   n.head.NewPass(batch),
		dOut:   tensor.NewMatrix(batch, n.head.OutputDim()),
		gIn:    tensor.NewMatrix(batch, n.head.InputDim()),
		traces: make([]trace, batch),
		cg:     make([]convGrads, len(n.convs)),
		hgW:    make([]*tensor.Matrix, len(headLayers)),
		hgB:    make([]tensor.Vector, len(headLayers)),
	}
	for i, c := range n.convs {
		tr.cg[i] = convGrads{w: make([]float64, len(c.W)), b: make([]float64, len(c.B))}
	}
	for i, l := range headLayers {
		tr.hgW[i] = tensor.NewMatrix(l.W.Rows, l.W.Cols)
		tr.hgB[i] = tensor.NewVector(len(l.B))
	}
	return tr
}

// Train fits the hybrid network in place with plain minibatch SGD, sampling
// dropout masks per example (both conv channel masks and dense unit masks).
// It exists to produce dropout-trained convolutional models for the
// future-work moment propagation; heavy-duty optimization stays in
// internal/train.
func Train(n *Net, data []Sample, cfg TrainConfig) error {
	if err := cfg.validate(len(data)); err != nil {
		return err
	}
	// Every input, and every target against cfg.Loss, is checked before the
	// first update, so a rejected call leaves the weights untouched.
	out := n.head.OutputDim()
	probe, probeGrad := tensor.NewVector(out), tensor.NewVector(out)
	for i, s := range data {
		if s.X == nil || s.X.Channels != n.convs[0].InCh {
			return fmt.Errorf("sample %d: bad input: %w", i, ErrConfig)
		}
		if _, err := cfg.Loss.Eval(probe, s.Y, probeGrad); err != nil {
			return fmt.Errorf("sample %d: target: %w: %w", i, err, ErrConfig)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	perm := rng.Perm(len(data))
	tr := newTrainer(n, cfg.BatchSize)
	headLayers := n.head.Layers()

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		var epochLoss float64
		for start := 0; start < len(perm); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(perm) {
				end = len(perm)
			}
			var err error
			if epochLoss, err = tr.batchGrads(data, perm[start:end], cfg.Loss, rng, epochLoss); err != nil {
				return err
			}
			scale := cfg.LearningRate / float64(end-start)
			for i, c := range n.convs {
				for j := range c.W {
					c.W[j] -= scale * tr.cg[i].w[j]
				}
				for j := range c.B {
					c.B[j] -= scale * tr.cg[i].b[j]
				}
			}
			for i, l := range headLayers {
				for j := range l.W.Data {
					l.W.Data[j] -= scale * tr.hgW[i].Data[j]
				}
				for j := range l.B {
					l.B[j] -= scale * tr.hgB[i][j]
				}
			}
		}
		if cfg.Logf != nil {
			cfg.Logf("conv epoch %d: train %.5f", epoch, epochLoss/float64(len(perm)))
		}
	}
	return nil
}

func zero(xs []float64) {
	for i := range xs {
		xs[i] = 0
	}
}

// batchGrads computes one minibatch's gradients, summed over its samples,
// into tr.cg/hgW/hgB and returns lossSum plus the batch's sample losses,
// added one by one. Each sample runs its conv stack on its own, drawing its
// channel masks and then its head masks; the pooled rows then go through
// the head as one masked B-row pass, forward and backward, and the conv
// stacks back-propagate sample by sample in batch order.
func (tr *trainer) batchGrads(data []Sample, batch []int, loss train.Loss, rng *rand.Rand, lossSum float64) (float64, error) {
	for i := range tr.cg {
		zero(tr.cg[i].w)
		zero(tr.cg[i].b)
	}
	for b, idx := range batch {
		pooled, err := tr.n.convForward(data[idx].X, &tr.traces[b], rng)
		if err != nil {
			return 0, fmt.Errorf("conv: sample %d: %w", idx, err)
		}
		tr.head.SetRow(b, pooled)
		tr.head.DrawMasks(b, rng)
	}
	out := tr.head.Forward(len(batch), true)
	dOut := tr.dOut.TopRows(len(batch))
	for b, idx := range batch {
		lv, err := loss.Eval(out.Row(b), data[idx].Y, dOut.Row(b))
		if err != nil {
			return 0, fmt.Errorf("conv: sample %d: %w", idx, err)
		}
		lossSum += lv
	}
	gIn := tr.gIn.TopRows(len(batch))
	tr.head.Backward(dOut, tr.hgW, tr.hgB, gIn)
	for b := range batch {
		tr.n.convBackward(&tr.traces[b], gIn.Row(b), tr.cg)
	}
	return lossSum, nil
}

// convForward runs one sample through the conv stack with freshly drawn
// channel masks, recording the trace for convBackward, and returns the
// globally average-pooled output.
func (n *Net) convForward(x *Seq, tr *trace, rng *rand.Rand) (tensor.Vector, error) {
	*tr = trace{}
	cur := x
	for _, c := range n.convs {
		outSteps, err := c.OutSteps(cur.Steps)
		if err != nil {
			return nil, err
		}
		mask := make([]float64, c.InCh)
		for ch := range mask {
			if c.KeepProb >= 1 || rng.Float64() < c.KeepProb {
				mask[ch] = 1
			}
		}
		pre := NewSeq(outSteps, c.OutCh)
		out := NewSeq(outSteps, c.OutCh)
		for t := 0; t < outSteps; t++ {
			base := t * c.Stride
			for o := 0; o < c.OutCh; o++ {
				sum := c.B[o]
				for ch := 0; ch < c.InCh; ch++ {
					if mask[ch] == 0 {
						continue
					}
					for k := 0; k < c.Kernel; k++ {
						sum += cur.At(base+k, ch) * c.w(k, ch, o)
					}
				}
				pre.Set(t, o, sum)
				out.Set(t, o, c.Act.Apply(sum))
			}
		}
		tr.inputs = append(tr.inputs, cur)
		tr.pres = append(tr.pres, pre)
		tr.masks = append(tr.masks, mask)
		cur = out
	}
	return GlobalAvgPool(cur), nil
}

// convBackward back-propagates grad, the loss gradient with respect to the
// pooled vector, through global average pooling and the conv stack of one
// recorded trace, accumulating the parameter gradients into cg.
func (n *Net) convBackward(tr *trace, grad tensor.Vector, cg []convGrads) {
	// ----- Backward: global average pooling.
	lastOutSteps := tr.pres[len(tr.pres)-1].Steps
	lastOutCh := tr.pres[len(tr.pres)-1].Channels
	seqGrad := NewSeq(lastOutSteps, lastOutCh)
	inv := 1.0 / float64(lastOutSteps)
	for t := 0; t < lastOutSteps; t++ {
		for c := 0; c < lastOutCh; c++ {
			seqGrad.Set(t, c, grad[c]*inv)
		}
	}

	// ----- Backward: conv stack.
	for li := len(n.convs) - 1; li >= 0; li-- {
		c := n.convs[li]
		pre := tr.pres[li]
		in := tr.inputs[li]
		mask := tr.masks[li]

		// delta = dL/dPre.
		delta := NewSeq(pre.Steps, pre.Channels)
		for t := 0; t < pre.Steps; t++ {
			for o := 0; o < c.OutCh; o++ {
				delta.Set(t, o, seqGrad.At(t, o)*c.Act.Derivative(pre.At(t, o)))
			}
		}
		// Parameter gradients.
		for t := 0; t < pre.Steps; t++ {
			base := t * c.Stride
			for o := 0; o < c.OutCh; o++ {
				d := delta.At(t, o)
				if d == 0 {
					continue
				}
				cg[li].b[o] += d
				for ch := 0; ch < c.InCh; ch++ {
					if mask[ch] == 0 {
						continue
					}
					for k := 0; k < c.Kernel; k++ {
						cg[li].w[(k*c.InCh+ch)*c.OutCh+o] += in.At(base+k, ch) * d
					}
				}
			}
		}
		// Input gradients for the next layer down.
		if li > 0 {
			ig := NewSeq(in.Steps, in.Channels)
			for t := 0; t < pre.Steps; t++ {
				base := t * c.Stride
				for o := 0; o < c.OutCh; o++ {
					d := delta.At(t, o)
					if d == 0 {
						continue
					}
					for ch := 0; ch < c.InCh; ch++ {
						if mask[ch] == 0 {
							continue
						}
						for k := 0; k < c.Kernel; k++ {
							ig.Data[(base+k)*in.Channels+ch] += c.w(k, ch, o) * d
						}
					}
				}
			}
			seqGrad = ig
		}
	}
}
