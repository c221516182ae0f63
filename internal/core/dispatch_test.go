package core

import (
	"math"
	"testing"

	"github.com/apdeepsense/apdeepsense/internal/nn"
)

// recordingProgram stands in for both installable programs: it counts the
// batches it is handed and answers every row with a sentinel, so a test can
// tell from the output alone which path served a call.
type recordingProgram struct{ rows []int }

const sentinel = 42.5

func (r *recordingProgram) MaxBatch() int { return 64 }

func (r *recordingProgram) RunBatch(in, out GaussianBatch, _ *Hooks) {
	r.rows = append(r.rows, in.Batch())
	out.Mean.Fill(sentinel)
	out.Var.Fill(sentinel)
}

// TestOneDispatchForEveryEntryPoint: per-sample calls are one-row calls of
// the batched dispatch, so an installed compiled or quantized program
// answers Propagate and PropagateFrom too. PropagateTrace stays on the
// engine, because only the engine records the per-layer states.
func TestOneDispatchForEveryEntryPoint(t *testing.T) {
	net := buildTestNet(t, nn.ActTanh, 0.8, 31)
	x := hookTestInputs(1, net.InputDim(), 5)[0]
	for _, kind := range []string{"compiled", "quantized"} {
		t.Run(kind, func(t *testing.T) {
			p, err := NewPropagator(net, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := p.Propagate(x)
			if err != nil {
				t.Fatal(err)
			}
			rec := &recordingProgram{}
			if kind == "compiled" {
				p.SetCompiled(rec)
			} else {
				p.SetQuantized(rec)
			}

			g, err := p.Propagate(x)
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.rows) != 1 || rec.rows[0] != 1 || g.Mean[0] != sentinel {
				t.Errorf("Propagate: program batches %v, mean[0] %v; want one 1-row batch answering %v", rec.rows, g.Mean[0], sentinel)
			}
			g, err = p.PropagateFrom(Deterministic(x))
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.rows) != 2 || rec.rows[1] != 1 || g.Mean[0] != sentinel {
				t.Errorf("PropagateFrom: program batches %v, mean[0] %v; want a second 1-row batch answering %v", rec.rows, g.Mean[0], sentinel)
			}

			before := len(rec.rows)
			final, trace, err := p.PropagateTrace(x)
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.rows) != before {
				t.Errorf("PropagateTrace reached the installed program (batches %v)", rec.rows)
			}
			if len(trace) != net.NumLayers() {
				t.Fatalf("trace length %d, want %d", len(trace), net.NumLayers())
			}
			for j := range want.Mean {
				if math.Float64bits(final.Mean[j]) != math.Float64bits(want.Mean[j]) ||
					math.Float64bits(final.Var[j]) != math.Float64bits(want.Var[j]) {
					t.Fatalf("trace out %d = (%v, %v), engine (%v, %v)", j, final.Mean[j], final.Var[j], want.Mean[j], want.Var[j])
				}
			}
		})
	}
}
