package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/nn"
)

// TestSameSeedSameInputs pins that every workload's inputs are a function
// of the seed alone.
func TestSameSeedSameInputs(t *testing.T) {
	spec := serverSpec{model: denseTanh, rowsPerReq: 64}
	a, err := newRequestSet(7, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newRequestSet(7, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("seed 7 drew two different request sets")
	}
	c, err := newRequestSet(8, spec)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.bodies, c.bodies) {
		t.Error("seeds 7 and 8 drew the same bodies")
	}

	x, y := make([]float64, 3), make([]float64, 3)
	fleetStream{seed: 7}.sample(123, 45, x)
	fleetStream{seed: 7}.sample(123, 45, y)
	if !slices.Equal(x, y) {
		t.Error("seed 7 drew two different fleet samples")
	}
	fleetStream{seed: 8}.sample(123, 45, y)
	if slices.Equal(x, y) {
		t.Error("seeds 7 and 8 drew the same fleet sample")
	}
}

// TestP90NeedsTenSamplesBeyond pins that a p90 is reported only when at
// least ten samples lie beyond it.
func TestP90NeedsTenSamplesBeyond(t *testing.T) {
	var w window
	for i := 0; i < 99; i++ {
		w.lat.add(int64(i))
		w.attempted++
	}
	result := func() (*outcome, error) {
		w.slices = []slice{{end: len(w.lat), elapsed: time.Second, cpu: time.Second}}
		return windowOutcome(&outcome{report: map[string]any{}}, w, 0, nil)
	}
	if _, err := result(); err == nil {
		t.Fatal("p90 reported from 99 samples")
	}
	w.lat.add(99)
	w.attempted++
	out, err := result()
	if err != nil {
		t.Fatalf("100 samples: %v", err)
	}
	// Nearest rank: the 90th smallest of 0..99 ns, with 10 samples above.
	if got := out.metrics["p90_ms"]; got != 89e-6 {
		t.Errorf("p90 = %v ms, want 89e-6", got)
	}
}

// TestFastSlices pins which slices the end-to-end figures come from: the
// fastest tenth by wall time per operation, widened until they hold
// minPoolOps operations.
func TestFastSlices(t *testing.T) {
	cases := []struct {
		slices, opsPerSlice, wantSlices int
	}{
		{100, 100, 10}, // a tenth of the slices holds enough operations
		{30, 10, 10},   // three slices hold 30; widened to 100
	}
	for _, c := range cases {
		// Slice k takes k+1 ms per operation; slices run in a shuffled order.
		var w window
		for _, k := range rand.New(rand.NewSource(1)).Perm(c.slices) {
			per := time.Duration(k+1) * time.Millisecond
			for i := 0; i < c.opsPerSlice; i++ {
				w.lat.add(int64(per))
			}
			w.slices = append(w.slices, slice{end: len(w.lat), elapsed: per * time.Duration(c.opsPerSlice), cpu: per})
		}
		lat, elapsed, cpu, ok := w.fast()
		if !ok || len(lat) != c.wantSlices*c.opsPerSlice {
			t.Errorf("%d slices of %d: %d operations (ok %v), want %d", c.slices, c.opsPerSlice, len(lat), ok, c.wantSlices*c.opsPerSlice)
			continue
		}
		// The fastest wantSlices slices are k = 0..wantSlices-1.
		n := time.Duration(c.wantSlices)
		if want := n * (n + 1) / 2 * time.Millisecond; cpu != want || elapsed != want*time.Duration(c.opsPerSlice) {
			t.Errorf("%d slices of %d: cpu %v elapsed %v, want %v and %v", c.slices, c.opsPerSlice, cpu, elapsed, want, want*time.Duration(c.opsPerSlice))
		}
		if got := slices.Max(lat); got != uint32(n*time.Millisecond) {
			t.Errorf("%d slices of %d: slowest pooled operation %d ns, want %d", c.slices, c.opsPerSlice, got, n*time.Millisecond)
		}
	}
	var w window
	for i := 0; i < 99; i++ {
		w.lat.add(1)
	}
	w.slices = []slice{{end: 50, elapsed: time.Millisecond}, {end: 99, elapsed: time.Millisecond}}
	if _, _, _, ok := w.fast(); ok {
		t.Error("99 operations reported as enough for a p90")
	}
}

// TestCatalogMatchesBenchmarkJSON pins the metric catalogs and workload
// list to BENCHMARK.json, and the statistic definitions and workload
// entries to perfbench/workloads.json.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	match := func(kind string, catalog []metricSpec, listed []struct{ Name, Unit string }) {
		if len(catalog) != len(listed) {
			t.Errorf("%s: %d metrics in the code, %d in BENCHMARK.json", kind, len(catalog), len(listed))
			return
		}
		for i, m := range catalog {
			if !metricName.MatchString(m.name) {
				t.Errorf("%s: metric name %q", kind, m.name)
			}
			if listed[i].Name != m.name || listed[i].Unit != m.unit {
				t.Errorf("%s[%d]: code %s (%s), BENCHMARK.json %s (%s)", kind, i, m.name, m.unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	match("end_to_end", endToEnd, bj.EndToEnd)
	match("per_layer", perLayer, bj.PerLayer)

	known := map[string]bool{}
	for _, m := range perLayer {
		known[m.name] = true
	}
	raw, err = os.ReadFile("workloads.json")
	if err != nil {
		t.Fatal(err)
	}
	var detail struct {
		Statistics map[string]string
		Workloads  map[string]json.RawMessage
	}
	if err := json.Unmarshal(raw, &detail); err != nil {
		t.Fatal(err)
	}
	if len(detail.Statistics) != len(endToEnd) {
		t.Errorf("workloads.json defines %d statistics for %d end-to-end metrics", len(detail.Statistics), len(endToEnd))
	}
	for _, m := range endToEnd {
		if detail.Statistics[m.name] == "" {
			t.Errorf("workloads.json does not define the statistic of %s", m.name)
		}
	}
	if len(bj.Workloads) != len(workloads) || len(detail.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the code, %d in BENCHMARK.json, %d in workloads.json", len(workloads), len(bj.Workloads), len(detail.Workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: code %q, BENCHMARK.json %q", i, w.name, bj.Workloads[i].Name)
		}
		if _, ok := detail.Workloads[w.name]; !ok {
			t.Errorf("workloads.json has no entry for %s", w.name)
		}
		for _, name := range w.layers {
			if !known[name] {
				t.Errorf("%s measures %s, which is not a per-layer metric", w.name, name)
			}
		}
	}
}

// TestCheckerRejectsPerturbedOutput pins that the output check passes
// correct answers and fails every operation that served a wrong one.
func TestCheckerRejectsPerturbedOutput(t *testing.T) {
	net, err := modelSpec{in: 5, hidden: []int{16, 16}, out: 2, act: nn.ActReLU, keep: 0.9}.build()
	if err != nil {
		t.Fatal(err)
	}
	rows := inputRows(rand.New(rand.NewSource(1)), 4, 5)
	for _, obsVar := range []float64{0, deviceObsVar} {
		for _, isStd := range []bool{false, true} {
			est, err := core.NewApDeepSense(net, core.Options{}, obsVar)
			if err != nil {
				t.Fatal(err)
			}
			good := func(i int) answer {
				g, err := est.Predict(rows[i])
				if err != nil {
					t.Fatal(err)
				}
				if isStd {
					for j, v := range g.Var {
						g.Var[j] = math.Sqrt(v)
					}
				}
				return answer{g.Mean, g.Var}
			}
			check := func(name string, wantFailed int, observe func(c *checker)) {
				t.Helper()
				c, err := newChecker(net, rows, obsVar, isStd)
				if err != nil {
					t.Fatal(err)
				}
				observe(c)
				failed, err := c.verify()
				if failed != wantFailed || (err != nil) != (wantFailed > 0) {
					t.Errorf("obsVar %v std %v, %s: %d failed (err %v), want %d", obsVar, isStd, name, failed, err, wantFailed)
				}
			}
			check("correct answers", 0, func(c *checker) {
				for i := range rows {
					c.observe(i, good(i))
					c.observe(i, good(i))
				}
			})
			// The oracle's conditioning budget on this network is ~1e-5 on
			// means and ~1e-4 on variances; the perturbations exceed it.
			check("mean off by 1e-3", 2, func(c *checker) {
				a := good(0)
				a.mean[1] += 1e-3
				c.observe(0, a)
				c.observe(0, a)
				c.observe(1, good(1))
			})
			check("spread off by 1e-2", 1, func(c *checker) {
				a := good(2)
				a.spread[0] += 1e-2
				c.observe(2, a)
				c.observe(3, good(3))
			})
			check("repeat differs by one ulp", 1, func(c *checker) {
				c.observe(0, good(0))
				a := good(0)
				a.spread[1] = math.Nextafter(a.spread[1], math.Inf(1))
				c.observe(0, a)
			})
		}
	}
}
