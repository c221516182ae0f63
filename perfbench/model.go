package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// modelSeed fixes the weights of every benchmark model. The workload seed
// drives only the inputs, so runs with different seeds measure the same
// program on different traffic.
const modelSeed = 20180702

// modelSpec is a dense dropout network the benchmark serves.
type modelSpec struct {
	in     int
	hidden []int
	out    int
	act    nn.Activation
	keep   float64
}

func (m modelSpec) String() string {
	s := fmt.Sprintf("%s %d", m.act, m.in)
	for _, h := range m.hidden {
		s += fmt.Sprintf("-%d", h)
	}
	return s + fmt.Sprintf("-%d keep %.2g", m.out, m.keep)
}

var (
	// denseReLU and denseTanh are 5-256-256-1, the network of every
	// dense-path results/BENCH_* file.
	denseReLU = modelSpec{in: 5, hidden: []int{256, 256}, out: 1, act: nn.ActReLU, keep: 0.9}
	denseTanh = modelSpec{in: 5, hidden: []int{256, 256}, out: 1, act: nn.ActTanh, keep: 0.9}
	// fleetNet predicts one 3-channel × 8-sample window.
	fleetNet = modelSpec{in: 24, hidden: []int{32}, out: 1, act: nn.ActReLU, keep: 0.9}
)

// build constructs the network with seeded weights and small seeded
// biases (nn.New leaves biases at zero, which would make every unit's
// pre-activation mean exactly zero at a zero input).
func (m modelSpec) build() (*nn.Network, error) {
	net, err := nn.New(nn.Config{
		InputDim: m.in, Hidden: m.hidden, OutputDim: m.out,
		Activation: m.act, OutputActivation: nn.ActIdentity,
		KeepProb: m.keep, Seed: modelSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("build model %s: %w", m, err)
	}
	rng := rand.New(rand.NewSource(modelSeed + 1))
	for _, l := range net.Layers() {
		for j := range l.B {
			l.B[j] = 0.1 * rng.NormFloat64()
		}
	}
	return net, nil
}

// encode builds the network and returns its serialized form, the bytes a
// set-up decodes.
func (m modelSpec) encode() ([]byte, error) {
	net, err := m.build()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		return nil, fmt.Errorf("encode model %s: %w", m, err)
	}
	return buf.Bytes(), nil
}

// inputRows draws n standard-normal rows of width dim from rng.
func inputRows(rng *rand.Rand, n, dim int) []tensor.Vector {
	rows := make([]tensor.Vector, n)
	for i := range rows {
		rows[i] = make(tensor.Vector, dim)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	return rows
}
