package experiments

import (
	"fmt"
	"math/rand"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/mcdrop"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/report"
	"github.com/apdeepsense/apdeepsense/internal/stats"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
	"github.com/apdeepsense/apdeepsense/internal/train"
)

// Figure is one regenerated paper figure: some combination of text, bar
// charts, a scatter plot, and the data table backing it.
type Figure struct {
	Number  int
	Title   string
	Text    string
	Charts  []*report.BarChart
	Scatter *report.Scatter
	Data    *report.Table
}

// taskDims records each task's model-facing dimensions so the system-cost
// figures (2–5) can build paper-scale architectures without generating data.
var taskDims = map[string]struct{ in, out int }{
	"BPEst":     {250, 250},
	"NYCommute": {5, 1},
	"GasSen":    {16, 2},
	"HHAR":      {78, 6},
}

// figureTask maps the paper's figure numbers 2–5 (time/energy) and 6–9
// (tradeoff) to tasks.
var figureTask = map[int]string{
	2: "BPEst", 3: "NYCommute", 4: "GasSen", 5: "HHAR",
	6: "BPEst", 7: "NYCommute", 8: "GasSen", 9: "HHAR",
}

// Figure regenerates the paper's Figure n:
//
//	1    hidden-unit output distributions of a deep dropout network
//	2–5  inference time and energy per task (Edison device model)
//	6–9  energy vs NLL tradeoff per task
func (r *Runner) Figure(n int) (*Figure, error) {
	switch {
	case n == 1:
		return r.figure1()
	case n >= 2 && n <= 5:
		return r.figureTimeEnergy(n)
	case n >= 6 && n <= 9:
		return r.figureTradeoff(n)
	default:
		return nil, fmt.Errorf("no figure %d (valid: 1-9): %w", n, ErrConfig)
	}
}

// figure1 reproduces the paper's toy experiment (§III-A): train a 20-layer
// fully-connected dropout network to learn the sum of 200 independent
// Gaussian variables, then histogram the stochastic outputs of hidden units
// in deep layers across thousands of random dropout masks. The histograms
// exhibit bell curves — the empirical justification for the Gaussian
// approximation family — and this reproduction additionally overlays the
// closed-form ApDeepSense moments for the same units.
func (r *Runner) figure1() (*Figure, error) {
	const (
		inputDim = 200
		width    = 64
		depth    = 20 // weight layers
	)
	passes := int(25000 * r.scale.DataFraction)
	if passes < 2000 {
		passes = 2000
	}
	trainN := int(2000 * r.scale.DataFraction)
	if trainN < 200 {
		trainN = 200
	}

	hidden := make([]int, depth-1)
	for i := range hidden {
		hidden[i] = width
	}
	net, err := nn.New(nn.Config{
		InputDim: inputDim, Hidden: hidden, OutputDim: 1,
		Activation: nn.ActReLU, OutputActivation: nn.ActIdentity,
		KeepProb: defaultKeepProb, Seed: 41,
	})
	if err != nil {
		return nil, fmt.Errorf("figure1: %w", err)
	}

	rng := rand.New(rand.NewSource(42))
	samples := make([]train.Sample, trainN)
	for i := range samples {
		x := make(tensor.Vector, inputDim)
		var sum float64
		for j := range x {
			x[j] = rng.NormFloat64()
			sum += x[j]
		}
		samples[i] = train.Sample{X: x, Y: tensor.Vector{sum / 14.14}} // ≈ sqrt(200), unit-variance target
	}
	r.logf("figure1: training %d-layer toy network", depth)
	if _, err := train.Fit(net, samples, nil, train.Config{
		Epochs: 4, BatchSize: 32, Seed: 7,
		Loss: train.MSE{}, Optimizer: train.NewAdam(defaultLR), ClipNorm: 5,
	}); err != nil {
		return nil, fmt.Errorf("figure1: train: %w", err)
	}

	// Probe one hidden unit in layers 12 and 18, as in the paper's figure.
	probe := tensor.NewVector(inputDim)
	for j := range probe {
		probe[j] = rng.NormFloat64()
	}

	fig := &Figure{
		Number: 1,
		Title:  "Fig. 1: The output distributions of hidden units in a neural network",
	}
	data := &report.Table{
		Title:   "Hidden-unit stochastic output moments: MCDrop sampling vs ApDeepSense closed form",
		Headers: []string{"layer", "unit", "MC mean", "MC std", "ApDS mean", "ApDS std", "gauss TV-dist"},
	}
	text := ""
	layers := net.Layers()
	for _, layerIdx := range []int{12, 18} {
		// Record the PRE-activation y^(l) of the probed layer (eq. 1): that
		// is the quantity the Gaussian family approximates. Post-ReLU
		// outputs are rectified mixtures, not Gaussians. The subnet clones
		// the prefix and strips the final non-linearity.
		prefix := layers[:layerIdx]
		cloned := make([]*nn.Layer, len(prefix))
		for i, l := range prefix {
			cloned[i] = &nn.Layer{W: l.W, B: l.B, Act: l.Act, KeepProb: l.KeepProb}
		}
		last := cloned[len(cloned)-1]
		cloned[len(cloned)-1] = &nn.Layer{W: last.W, B: last.B, Act: nn.ActIdentity, KeepProb: last.KeepProb}
		sub, err := nn.FromLayers(cloned)
		if err != nil {
			return nil, fmt.Errorf("figure1: subnet: %w", err)
		}
		const unit = 0
		var w stats.Welford
		values := make([]float64, 0, passes)
		if err := sub.Sample(probe, passes, rng, func(y tensor.Vector) {
			values = append(values, y[unit])
			w.Add(y[unit])
		}); err != nil {
			return nil, fmt.Errorf("figure1: sample: %w", err)
		}
		span := 4 * w.Std()
		if span == 0 {
			span = 1
		}
		hist, err := stats.NewHistogram(w.Mean()-span, w.Mean()+span, 40)
		if err != nil {
			return nil, fmt.Errorf("figure1: histogram: %w", err)
		}
		for _, v := range values {
			hist.Add(v)
		}

		prop, err := core.NewPropagator(sub, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("figure1: propagator: %w", err)
		}
		g, err := prop.Propagate(probe)
		if err != nil {
			return nil, fmt.Errorf("figure1: propagate: %w", err)
		}

		tv := hist.GaussianFitError(w.Mean(), w.Std())
		data.AddRow(
			fmt.Sprint(layerIdx), fmt.Sprint(unit),
			fmt.Sprintf("%.4f", w.Mean()), fmt.Sprintf("%.4f", w.Std()),
			fmt.Sprintf("%.4f", g.Mean[unit]), fmt.Sprintf("%.4f", g.Std(unit)),
			fmt.Sprintf("%.4f", tv),
		)
		text += fmt.Sprintf("\n(layer %d, unit %d) distribution over %d dropout masks:\n%s",
			layerIdx, unit, passes, hist.Render(48))
	}
	fig.Text = text
	fig.Data = data
	return fig, nil
}

// paperScaleEstimators builds the cost-model estimator grid for one task at
// the paper's exact architecture (5 layers, 512 hidden), independent of the
// runner's training scale: estimator cost depends only on network shape.
func paperScaleEstimators(task string, act nn.Activation) ([]core.Estimator, error) {
	dims, ok := taskDims[task]
	if !ok {
		return nil, fmt.Errorf("unknown task %q: %w", task, ErrConfig)
	}
	net, err := nn.New(nn.Config{
		InputDim: dims.in, Hidden: PaperScale.Hidden, OutputDim: dims.out,
		Activation: act, OutputActivation: nn.ActIdentity,
		KeepProb: defaultKeepProb, Seed: 1,
	})
	if err != nil {
		return nil, fmt.Errorf("paper-scale net: %w", err)
	}
	out := make([]core.Estimator, 0, len(MCDropKs)+1)
	apds, err := core.NewApDeepSense(net, core.Options{}, zeroObsVar)
	if err != nil {
		return nil, err
	}
	out = append(out, apds)
	for _, k := range MCDropKs {
		mc, err := mcdrop.New(net, k, zeroObsVar, 1)
		if err != nil {
			return nil, err
		}
		out = append(out, mc)
	}
	return out, nil
}

// figureTimeEnergy regenerates Figures 2–5: modeled Edison inference time
// and energy for every estimator on both network families, at the paper's
// 5-layer 512-wide architecture.
func (r *Runner) figureTimeEnergy(n int) (*Figure, error) {
	task := figureTask[n]
	timeChart := &report.BarChart{
		Title: fmt.Sprintf("(a) Inference time of the %s task (modeled Intel Edison)", task),
		Unit:  "ms",
	}
	energyChart := &report.BarChart{
		Title: fmt.Sprintf("(b) Energy consumption of the %s task (modeled Intel Edison)", task),
		Unit:  "mJ",
	}
	data := &report.Table{
		Title:   fmt.Sprintf("Modeled per-inference cost, %s task, paper-scale architecture (%v hidden)", task, PaperScale.Hidden),
		Headers: []string{"Model", "Edison ms", "Edison mJ", "dense MFLOPs", "element Mops", "rand Mdraws"},
	}
	var apdsTime, mc50Time [2]float64
	for ai, act := range Activations {
		ests, err := paperScaleEstimators(task, act)
		if err != nil {
			return nil, fmt.Errorf("figure %d: %w", n, err)
		}
		for _, est := range ests {
			label := fmt.Sprintf("DNN-%s-%s", actLabel(act.String()), est.Name())
			c := est.Cost()
			tMs := r.device.TimeMillis(c)
			eMj := r.device.EnergyMillijoules(c)
			timeChart.Add(label, tMs)
			energyChart.Add(label, eMj)
			data.AddRow(label,
				fmt.Sprintf("%.1f", tMs), fmt.Sprintf("%.1f", eMj),
				fmt.Sprintf("%.2f", float64(c.DenseFLOPs)/1e6),
				fmt.Sprintf("%.2f", float64(c.ElementOps)/1e6),
				fmt.Sprintf("%.2f", float64(c.RandomDraws)/1e6),
			)
			switch est.Name() {
			case "ApDeepSense":
				apdsTime[ai] = tMs
			case "MCDrop-50":
				mc50Time[ai] = tMs
			}
		}
	}
	for ai, act := range Activations {
		if mc50Time[ai] > 0 {
			saving := 100 * (1 - apdsTime[ai]/mc50Time[ai])
			data.Notes = append(data.Notes,
				fmt.Sprintf("%s: ApDeepSense saves %.1f%% of MCDrop-50 time/energy", actLabel(act.String()), saving))
		}
	}
	return &Figure{
		Number: n,
		Title:  fmt.Sprintf("Fig. %d: The inference time and energy consumption of the %s task", n, task),
		Charts: []*report.BarChart{timeChart, energyChart},
		Data:   data,
	}, nil
}

// figureTradeoff regenerates Figures 6–9: the energy-vs-NLL tradeoff.
// Energy comes from the paper-scale device model; NLL comes from evaluating
// the trained models at the runner's scale. ApDeepSense should land in the
// bottom-left (cheap and well-calibrated) of the MCDrop-k curve.
func (r *Runner) figureTradeoff(n int) (*Figure, error) {
	task := figureTask[n]
	fig := &Figure{
		Number:  n,
		Title:   fmt.Sprintf("Fig. %d: The tradeoff between energy consumption and NLL of the %s task", n, task),
		Scatter: &report.Scatter{Title: "", XLabel: "Negative Log-Likelihood", YLabel: "Energy (mJ)"},
	}
	data := &report.Table{
		Title:   fmt.Sprintf("Energy vs NLL, %s task", task),
		Headers: []string{"Model", "NLL", "Edison mJ"},
	}

	for _, act := range Activations {
		results, err := r.EvaluateCell(task, act.String())
		if err != nil {
			return nil, err
		}
		costEsts, err := paperScaleEstimators(task, act)
		if err != nil {
			return nil, err
		}
		energyByName := make(map[string]float64, len(costEsts))
		for _, est := range costEsts {
			energyByName[est.Name()] = r.device.EnergyMillijoules(est.Cost())
		}
		var apdsSeries, mcSeries report.Series
		apdsSeries = report.Series{Name: fmt.Sprintf("DNN-%s-ApDeepSense", actLabel(act.String())), Marker: 'A'}
		mcSeries = report.Series{Name: fmt.Sprintf("DNN-%s-MCDrop", actLabel(act.String())), Marker: 'o'}
		if act == nn.ActTanh {
			apdsSeries.Marker = 'a'
			mcSeries.Marker = '.'
		}
		for _, res := range results {
			energy, ok := energyByName[res.Estimator]
			if !ok {
				continue // RDeepSense is not part of the paper's tradeoff plots
			}
			// The paper's tradeoff plots use pure model-uncertainty NLL
			// (regression tasks expose it as NLLRaw; classification has a
			// single NLL).
			nll := res.NLLRaw
			if nll == 0 {
				nll = res.NLL
			}
			label := fmt.Sprintf("DNN-%s-%s", actLabel(act.String()), res.Estimator)
			data.AddRow(label, fmt.Sprintf("%.3f", nll), fmt.Sprintf("%.1f", energy))
			if res.Estimator == "ApDeepSense" {
				apdsSeries.X = append(apdsSeries.X, nll)
				apdsSeries.Y = append(apdsSeries.Y, energy)
			} else {
				mcSeries.X = append(mcSeries.X, nll)
				mcSeries.Y = append(mcSeries.Y, energy)
			}
		}
		fig.Scatter.Series = append(fig.Scatter.Series, mcSeries, apdsSeries)
	}
	fig.Data = data
	return fig, nil
}
