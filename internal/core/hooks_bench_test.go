package core

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// benchPropagator builds the 5-256-256-1 benchmark network of
// results/BENCH_batch.json and a batch of standard-normal inputs.
func benchPropagator(b *testing.B, batch int) (*Propagator, []tensor.Vector) {
	b.Helper()
	net, err := nn.New(nn.Config{
		InputDim: 5, Hidden: []int{256, 256}, OutputDim: 1,
		Activation: nn.ActReLU, OutputActivation: nn.ActIdentity,
		KeepProb: 0.9, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewPropagator(net, Options{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	inputs := make([]tensor.Vector, batch)
	for i := range inputs {
		v := make(tensor.Vector, net.InputDim())
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		inputs[i] = v
	}
	return p, inputs
}

// BenchmarkPropagateBatchNilHooks is the instrumented-but-unhooked hot
// path: the number that must stay within 2% of the pre-instrumentation
// baseline (the nil-hook checks are one atomic pointer load per chunk).
// Pre-instrumentation baseline on the reference host (Xeon 2.10GHz,
// -benchtime 2s, batch 64): 2.45–2.47 ms/op, 9 allocs/op.
func BenchmarkPropagateBatchNilHooks(b *testing.B) {
	p, inputs := benchPropagator(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.PropagateBatch(inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPropagateBatchHooked is the same workload with all three hooks
// attached and counting, the upper bound of instrumentation cost (per-layer
// time.Now pairs plus atomic accumulations).
func BenchmarkPropagateBatchHooked(b *testing.B) {
	p, inputs := benchPropagator(b, 64)
	var batches, layerCalls, scratchGets atomic.Int64
	var layerNanos atomic.Int64
	p.SetHooks(&Hooks{
		BatchStart: func(rows int) { batches.Add(1) },
		LayerTime: func(layer, rows int, d time.Duration) {
			layerCalls.Add(1)
			layerNanos.Add(d.Nanoseconds())
		},
		ScratchGet: func(hit bool) { scratchGets.Add(1) },
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.PropagateBatch(inputs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if batches.Load() == 0 || layerCalls.Load() == 0 || scratchGets.Load() == 0 {
		b.Fatal("hooks did not fire")
	}
}

// BenchmarkPropagateNilHooks pins the per-sample nil-hook cost: the same
// one-row engine call as PropagateBatch, so one atomic load plus a
// per-layer bool test.
func BenchmarkPropagateNilHooks(b *testing.B) {
	p, inputs := benchPropagator(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Propagate(inputs[0]); err != nil {
			b.Fatal(err)
		}
	}
}
