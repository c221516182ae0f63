package train

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// Config controls Fit.
type Config struct {
	// Epochs is the number of passes over the training set.
	Epochs int
	// BatchSize is the minibatch size (gradients averaged per batch).
	BatchSize int
	// Seed drives shuffling and dropout masks.
	Seed int64
	// Loss is the training objective.
	Loss Loss
	// Optimizer applies the parameter updates.
	Optimizer Optimizer
	// WeightDecay is the L2 regularization coefficient applied to weights
	// (not biases). With dropout training this corresponds to the Gaussian
	// prior length-scale of the variational interpretation (Gal &
	// Ghahramani).
	WeightDecay float64
	// ClipNorm clips the global gradient norm per batch; 0 disables.
	ClipNorm float64
	// EarlyStopPatience stops after this many epochs without validation
	// improvement and restores the best weights; 0 disables. Requires a
	// non-empty validation set.
	EarlyStopPatience int
	// Logf, when non-nil, receives one line per epoch.
	Logf func(format string, args ...any)
}

// History records per-epoch losses.
type History struct {
	TrainLoss []float64
	ValLoss   []float64
	// BestEpoch is the epoch (0-based) whose weights the network holds
	// after early stopping, or the last epoch otherwise.
	BestEpoch int
}

func (c *Config) validate(nTrain int) error {
	if c.Epochs < 1 {
		return fmt.Errorf("epochs %d: %w", c.Epochs, ErrConfig)
	}
	if c.BatchSize < 1 || c.BatchSize > nTrain {
		return fmt.Errorf("batch size %d with %d samples: %w", c.BatchSize, nTrain, ErrConfig)
	}
	if c.Loss == nil {
		return fmt.Errorf("nil loss: %w", ErrConfig)
	}
	if c.Optimizer == nil {
		return fmt.Errorf("nil optimizer: %w", ErrConfig)
	}
	if c.WeightDecay < 0 || c.ClipNorm < 0 {
		return fmt.Errorf("negative regularization: %w", ErrConfig)
	}
	return nil
}

// workspace is Fit's per-network scratch: the shared batched pass, the
// loss gradient rows, and the per-layer gradients of one minibatch.
type workspace struct {
	pass  *nn.Pass
	lossG *tensor.Matrix // batch×OutputDim dLoss/dOutput
	gradW []*tensor.Matrix
	gradB []tensor.Vector
}

func newWorkspace(net *nn.Network, batch int) *workspace {
	layers := net.Layers()
	ws := &workspace{
		pass:  net.NewPass(batch),
		lossG: tensor.NewMatrix(batch, net.OutputDim()),
		gradW: make([]*tensor.Matrix, len(layers)),
		gradB: make([]tensor.Vector, len(layers)),
	}
	for i, l := range layers {
		ws.gradW[i] = tensor.NewMatrix(l.W.Rows, l.W.Cols)
		ws.gradB[i] = tensor.NewVector(len(l.B))
	}
	return ws
}

// batchGrads runs the samples trainSet[idx] for idx in batch as one masked
// B-row pass, forward and backward, leaving the gradients summed over the
// batch in ws.gradW/gradB. It returns lossSum plus the batch's sample
// losses, added one by one. Each sample's masks are drawn in full before the
// next sample's, the order a per-sample loop consumes rng in.
func (ws *workspace) batchGrads(trainSet []Sample, batch []int, loss Loss, rng *rand.Rand, lossSum float64) (float64, error) {
	for b, idx := range batch {
		ws.pass.SetRow(b, trainSet[idx].X)
		ws.pass.DrawMasks(b, rng)
	}
	out := ws.pass.Forward(len(batch), true)
	dOut := ws.lossG.TopRows(len(batch))
	for b, idx := range batch {
		lv, err := loss.Eval(out.Row(b), trainSet[idx].Y, dOut.Row(b))
		if err != nil {
			return 0, fmt.Errorf("train: sample %d: %w", idx, err)
		}
		lossSum += lv
	}
	ws.pass.Backward(dOut, ws.gradW, ws.gradB, nil)
	return lossSum, nil
}

// Fit trains net in place on trainSet, optionally early-stopping on valSet,
// and returns the loss history. The network's dropout keep probabilities are
// respected during training (masks sampled per example), exactly the setting
// ApDeepSense requires of its pre-trained models.
func Fit(net *nn.Network, trainSet, valSet []Sample, cfg Config) (*History, error) {
	if err := cfg.validate(len(trainSet)); err != nil {
		return nil, err
	}
	if cfg.EarlyStopPatience > 0 && len(valSet) == 0 {
		return nil, fmt.Errorf("early stopping needs a validation set: %w", ErrConfig)
	}
	// Every sample, and every target against cfg.Loss, is checked before
	// the first update, so a rejected call leaves the weights untouched.
	probe, probeGrad := tensor.NewVector(net.OutputDim()), tensor.NewVector(net.OutputDim())
	for i, s := range trainSet {
		if len(s.X) != net.InputDim() || len(s.Y) == 0 {
			return nil, fmt.Errorf("sample %d: dims X=%d Y=%d: %w", i, len(s.X), len(s.Y), ErrConfig)
		}
		if _, err := cfg.Loss.Eval(probe, s.Y, probeGrad); err != nil {
			return nil, fmt.Errorf("sample %d: target: %w: %w", i, err, ErrConfig)
		}
	}
	for i, s := range valSet {
		if len(s.X) != net.InputDim() {
			return nil, fmt.Errorf("validation sample %d: dim X=%d: %w", i, len(s.X), ErrConfig)
		}
		if _, err := cfg.Loss.Eval(probe, s.Y, probeGrad); err != nil {
			return nil, fmt.Errorf("validation sample %d: target: %w: %w", i, err, ErrConfig)
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	ws := newWorkspace(net, cfg.BatchSize)
	layers := net.Layers()
	hist := &History{}

	perm := make([]int, len(trainSet))
	for i := range perm {
		perm[i] = i
	}

	bestVal := math.Inf(1)
	var bestNet *nn.Network
	sinceBest := 0

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		var epochLoss float64
		for start := 0; start < len(perm); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(perm) {
				end = len(perm)
			}
			var err error
			if epochLoss, err = ws.batchGrads(trainSet, perm[start:end], cfg.Loss, rng, epochLoss); err != nil {
				return nil, err
			}
			scale := 1.0 / float64(end-start)
			applyUpdate(layers, ws, cfg, scale)
		}
		epochLoss /= float64(len(perm))
		hist.TrainLoss = append(hist.TrainLoss, epochLoss)

		if len(valSet) > 0 {
			vl, err := EvalLoss(net, valSet, cfg.Loss)
			if err != nil {
				return nil, err
			}
			hist.ValLoss = append(hist.ValLoss, vl)
			if cfg.Logf != nil {
				cfg.Logf("epoch %d: train %.5f val %.5f", epoch, epochLoss, vl)
			}
			if vl < bestVal {
				bestVal = vl
				hist.BestEpoch = epoch
				sinceBest = 0
				if cfg.EarlyStopPatience > 0 {
					bestNet = net.Clone()
				}
			} else if cfg.EarlyStopPatience > 0 {
				sinceBest++
				if sinceBest >= cfg.EarlyStopPatience {
					break
				}
			}
		} else {
			hist.BestEpoch = epoch
			if cfg.Logf != nil {
				cfg.Logf("epoch %d: train %.5f", epoch, epochLoss)
			}
		}
	}

	if bestNet != nil {
		// Restore best-validation weights in place.
		cur := net.Layers()
		for i, l := range bestNet.Layers() {
			copy(cur[i].W.Data, l.W.Data)
			copy(cur[i].B, l.B)
		}
	}
	return hist, nil
}

// applyUpdate folds regularization into the batch gradients and steps the
// optimizer. scale is 1/batchSize.
func applyUpdate(layers []*nn.Layer, ws *workspace, cfg Config, scale float64) {
	// Scale gradients to the batch mean and add weight decay.
	for li, l := range layers {
		gw := ws.gradW[li]
		for i := range gw.Data {
			gw.Data[i] = gw.Data[i]*scale + cfg.WeightDecay*l.W.Data[i]
		}
		gb := ws.gradB[li]
		for i := range gb {
			gb[i] *= scale
		}
	}
	if cfg.ClipNorm > 0 {
		var norm2 float64
		for li := range layers {
			for _, g := range ws.gradW[li].Data {
				norm2 += g * g
			}
			for _, g := range ws.gradB[li] {
				norm2 += g * g
			}
		}
		if norm := math.Sqrt(norm2); norm > cfg.ClipNorm {
			f := cfg.ClipNorm / norm
			for li := range layers {
				for i := range ws.gradW[li].Data {
					ws.gradW[li].Data[i] *= f
				}
				for i := range ws.gradB[li] {
					ws.gradB[li][i] *= f
				}
			}
		}
	}
	cfg.Optimizer.BeginStep()
	for li, l := range layers {
		cfg.Optimizer.Update(2*li, l.W.Data, ws.gradW[li].Data)
		cfg.Optimizer.Update(2*li+1, l.B, ws.gradB[li])
	}
}

// EvalLoss computes the mean loss of the deterministic (weight-scaled)
// network over a dataset, running it as unmasked tiles of nn.SampleTile rows.
func EvalLoss(net *nn.Network, set []Sample, loss Loss) (float64, error) {
	if len(set) == 0 {
		return 0, fmt.Errorf("empty evaluation set: %w", ErrConfig)
	}
	for i, s := range set {
		if len(s.X) != net.InputDim() {
			return 0, fmt.Errorf("eval sample %d: input dim %d, want %d: %w", i, len(s.X), net.InputDim(), ErrConfig)
		}
	}
	pass := net.NewPass(min(len(set), nn.SampleTile))
	grad := tensor.NewVector(net.OutputDim())
	var total float64
	for start := 0; start < len(set); start += nn.SampleTile {
		tile := set[start:min(start+nn.SampleTile, len(set))]
		for b, s := range tile {
			pass.SetRow(b, s.X)
		}
		out := pass.Forward(len(tile), false)
		for b, s := range tile {
			lv, err := loss.Eval(out.Row(b), s.Y, grad)
			if err != nil {
				return 0, fmt.Errorf("eval sample %d: %w", start+b, err)
			}
			total += lv
		}
	}
	return total / float64(len(set)), nil
}
