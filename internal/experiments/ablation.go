package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/datasets"
	"github.com/apdeepsense/apdeepsense/internal/metrics"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/piecewise"
	"github.com/apdeepsense/apdeepsense/internal/report"
	"github.com/apdeepsense/apdeepsense/internal/stats"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// AblationPieces sweeps the PWL piece count used to approximate Tanh and
// reports, per count: the sup-norm approximation error, the resulting test
// NLL/MAE on the given task's Tanh network, and the modeled Edison cost.
// It validates the paper's choice of 7 pieces: quality saturates while cost
// keeps growing linearly in P.
func (r *Runner) AblationPieces(task string, pieceCounts []int) (*report.Table, error) {
	if len(pieceCounts) == 0 {
		pieceCounts = []int{3, 5, 7, 9, 15}
	}
	d, err := r.Dataset(task)
	if err != nil {
		return nil, err
	}
	if d.Task != datasets.TaskRegression {
		return nil, fmt.Errorf("piece ablation needs a regression task, got %s: %w", task, ErrConfig)
	}
	ms, err := r.Models(task, nn.ActTanh)
	if err != nil {
		return nil, err
	}

	tbl := &report.Table{
		Title:   fmt.Sprintf("Ablation: Tanh PWL piece count on the %s task (paper uses 7)", task),
		Headers: []string{"pieces", "sup-err", "MAE", "NLL", "NLL-raw", "Edison ms"},
	}
	for _, p := range pieceCounts {
		apds, err := core.NewApDeepSense(ms.Dropout, core.Options{TanhPieces: p}, 0)
		if err != nil {
			return nil, fmt.Errorf("ablation pieces=%d: %w", p, err)
		}
		res, err := r.Evaluate(apds, d, "tanh")
		if err != nil {
			return nil, err
		}
		supErr := tanhSupError(p)
		tbl.AddRow(
			fmt.Sprint(p),
			fmt.Sprintf("%.4f", supErr),
			fmt.Sprintf("%.2f", res.MAE),
			fmt.Sprintf("%.3f", res.NLL),
			fmt.Sprintf("%.1f", res.NLLRaw),
			fmt.Sprintf("%.2f", res.EdisonTimeMillis),
		)
	}
	tbl.Notes = append(tbl.Notes, "sup-err is the max |pwl - tanh| over [-6, 6]")
	return tbl, nil
}

// tanhSupError measures the PWL approximation's sup-norm error for p pieces.
func tanhSupError(p int) float64 {
	f, err := piecewise.Tanh(p)
	if err != nil {
		return -1
	}
	return f.SupError(math.Tanh, -6, 6, 4001)
}

// AblationSoftmaxLink compares the deterministic mean-field softmax link
// against logit sampling with varying sample counts on the classification
// task: accuracy, NLL, and the extra cost of sampling. It justifies the
// mean-field default.
func (r *Runner) AblationSoftmaxLink(samplesGrid []int) (*report.Table, error) {
	if len(samplesGrid) == 0 {
		samplesGrid = []int{10, 100, 1000}
	}
	d, err := r.Dataset("HHAR")
	if err != nil {
		return nil, err
	}
	ms, err := r.Models("HHAR", nn.ActReLU)
	if err != nil {
		return nil, err
	}
	prop, err := core.NewPropagator(ms.Dropout, core.Options{})
	if err != nil {
		return nil, err
	}

	tbl := &report.Table{
		Title:   "Ablation: classification link for ApDeepSense Gaussian logits (HHAR, ReLU)",
		Headers: []string{"link", "ACC", "NLL", "ECE"},
	}
	evalProbs := func(name string, probFn func(core.GaussianVec) (tensor.Vector, error)) error {
		probs := make([]tensor.Vector, len(d.Test))
		targets := make([]tensor.Vector, len(d.Test))
		for i, s := range d.Test {
			g, err := prop.Propagate(s.X)
			if err != nil {
				return err
			}
			if probs[i], err = probFn(g); err != nil {
				return err
			}
			targets[i] = s.Y
		}
		acc, err := metrics.Accuracy(probs, targets)
		if err != nil {
			return err
		}
		nll, err := metrics.CategoricalNLL(probs, targets)
		if err != nil {
			return err
		}
		ece, err := metrics.ECE(probs, targets, 10)
		if err != nil {
			return err
		}
		tbl.AddRow(name, fmt.Sprintf("%.2f%%", acc*100), fmt.Sprintf("%.3f", nll), fmt.Sprintf("%.3f", ece))
		return nil
	}

	if err := evalProbs("mean-field (default)", func(g core.GaussianVec) (tensor.Vector, error) {
		return core.MeanFieldSoftmax(g), nil
	}); err != nil {
		return nil, err
	}
	for _, n := range samplesGrid {
		rng := rand.New(rand.NewSource(77))
		n := n
		if err := evalProbs(fmt.Sprintf("sampled-%d", n), func(g core.GaussianVec) (tensor.Vector, error) {
			return core.SampledSoftmax(g, n, rng)
		}); err != nil {
			return nil, err
		}
	}
	return tbl, nil
}

// AblationVarianceBias quantifies the diagonal-covariance bias of
// ApDeepSense on the trained networks: the mean ratio of ApDeepSense's
// closed-form output variance to a long-run MCDrop estimate, per task and
// activation. A ratio below 1 means the layer-wise independence assumption
// loses variance on trained weights — the deviation discussed in
// EXPERIMENTS.md.
func (r *Runner) AblationVarianceBias(task string, probes, passes int) (*report.Table, error) {
	if probes < 1 || passes < 10 {
		return nil, fmt.Errorf("variance bias: probes=%d passes=%d: %w", probes, passes, ErrConfig)
	}
	d, err := r.Dataset(task)
	if err != nil {
		return nil, err
	}
	if probes > len(d.Test) {
		probes = len(d.Test)
	}
	tbl := &report.Table{
		Title:   fmt.Sprintf("Ablation: ApDeepSense variance vs long-run MCDrop on trained %s networks", task),
		Headers: []string{"activation", "mean var ratio (ApDS/MC)", "mean |z| of mean diff"},
	}
	for _, act := range Activations {
		ms, err := r.Models(task, act)
		if err != nil {
			return nil, err
		}
		prop, err := core.NewPropagator(ms.Dropout, core.Options{})
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(31))
		var ratioSum, zSum float64
		var count int
		for i := 0; i < probes; i++ {
			s := d.Test[i]
			g, err := prop.Propagate(s.X)
			if err != nil {
				return nil, err
			}
			acc := stats.NewVecWelford(ms.Dropout.OutputDim())
			if err := ms.Dropout.Sample(s.X, passes, rng, func(y tensor.Vector) { acc.Add(y) }); err != nil {
				return nil, err
			}
			mcMean := acc.Mean()
			mcVar := acc.Variance()
			for j := range mcVar {
				if mcVar[j] <= 1e-12 {
					continue
				}
				ratioSum += g.Var[j] / mcVar[j]
				zSum += math.Abs(g.Mean[j]-mcMean[j]) / math.Sqrt(mcVar[j]/float64(passes))
				count++
			}
		}
		if count == 0 {
			return nil, fmt.Errorf("variance bias: no usable probes for %s: %w", act, ErrConfig)
		}
		tbl.AddRow(act.String(),
			fmt.Sprintf("%.3f", ratioSum/float64(count)),
			fmt.Sprintf("%.2f", zSum/float64(count)),
		)
	}
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("%d probe inputs x %d MCDrop passes; ratio < 1 quantifies the diagonal-covariance variance loss", probes, passes))
	return tbl, nil
}
