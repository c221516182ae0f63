// Command probe is a development diagnostic: it measures the bias of
// ApDeepSense's closed-form variance against long-run MCDrop sampling on
// trained networks, across dropout keep probabilities. It informed the
// default keep probability used by the experiment harness (EXPERIMENTS.md).
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/datasets"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/stats"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
	"github.com/apdeepsense/apdeepsense/internal/train"
)

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	d, err := datasets.NYCommute(datasets.Size{Train: 3000, Val: 300, Test: 300, Seed: 102})
	if err != nil {
		return err
	}
	for _, keep := range []float64{0.9, 0.8, 0.65, 0.5} {
		for _, act := range []nn.Activation{nn.ActReLU, nn.ActTanh} {
			net, err := nn.New(nn.Config{
				InputDim: d.InputDim, Hidden: []int{128, 128, 128, 128}, OutputDim: d.OutputDim,
				Activation: act, OutputActivation: nn.ActIdentity,
				KeepProb: keep, Seed: 3,
			})
			if err != nil {
				return err
			}
			if _, err := train.Fit(net, d.Train, nil, train.Config{
				Epochs: 10, BatchSize: 64, Seed: 5,
				Loss: train.MSE{}, Optimizer: train.NewAdam(1e-3), ClipNorm: 5,
			}); err != nil {
				return err
			}
			prop, err := core.NewPropagator(net, core.Options{})
			if err != nil {
				return err
			}
			rng := rand.New(rand.NewSource(7))
			var ratioSum, zSum, resid2, apdsVarSum float64
			const nProbe = 40
			for i := 0; i < nProbe; i++ {
				s := d.Test[i]
				g, err := prop.Propagate(s.X)
				if err != nil {
					return err
				}
				var w stats.Welford
				if err := net.Sample(s.X, 3000, rng, func(y tensor.Vector) { w.Add(y[0]) }); err != nil {
					return err
				}
				ratioSum += g.Var[0] / w.Variance()
				r := s.Y[0] - g.Mean[0]
				resid2 += r * r
				zSum += r * r / g.Var[0]
				apdsVarSum += g.Var[0]
			}
			fmt.Printf("keep=%.2f act=%-5s  var-ratio(apds/mc)=%.3f  mean-z2=%.1f  residStd=%.3f  apdsStd=%.3f\n",
				keep, act, ratioSum/nProbe, zSum/nProbe,
				math.Sqrt(resid2/nProbe), math.Sqrt(apdsVarSum/nProbe))
		}
	}
	return nil
}
