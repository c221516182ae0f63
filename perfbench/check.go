package main

import (
	"fmt"
	"math"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/oracle"
	"github.com/apdeepsense/apdeepsense/internal/proptest"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// answer is one served output: means plus either variances (in-process
// calls) or standard deviations (the server's JSON "std").
type answer struct {
	mean, spread []float64
}

// checker verifies every output a workload served. Each repeat of an input
// must be bit-identical to the first answer for it (the batched, compiled
// and per-sample paths are documented bit-identical, so batch composition
// may not change a row's answer), and after the timed window each first
// answer is checked once against the quadrature oracle under the proptest
// RelTight contract: |fast − oracle| ≤ 1e-9·max(1, |oracle|) + CondBudget.
type checker struct {
	ref    *oracle.Ref
	rows   []tensor.Vector
	obsVar float64 // configured observation variance, removed before comparing
	isStd  bool    // spread holds standard deviations, not variances

	first []answer
	seen  []bool
	uses  []int // operations that served each row
	// bad counts operations whose answer differed from the row's first one.
	bad int
}

func newChecker(net *nn.Network, rows []tensor.Vector, obsVar float64, isStd bool) (*checker, error) {
	ref, err := oracle.NewRef(net, core.Options{}, false)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return &checker{
		ref: ref, rows: rows, obsVar: obsVar, isStd: isStd,
		first: make([]answer, len(rows)),
		seen:  make([]bool, len(rows)),
		uses:  make([]int, len(rows)),
	}, nil
}

// observe records the answer one operation got for row i; an answer that
// differs from the first one for that row counts the operation as failed.
func (c *checker) observe(i int, a answer) {
	c.uses[i]++
	if !c.seen[i] {
		c.seen[i] = true
		c.first[i] = answer{mean: append([]float64(nil), a.mean...), spread: append([]float64(nil), a.spread...)}
		return
	}
	if !sameBits(c.first[i].mean, a.mean) || !sameBits(c.first[i].spread, a.spread) {
		c.bad++
	}
}

// verify checks each first answer against the oracle and returns the
// number of operations that served a wrong answer (including those observe
// flagged) with the first oracle violation, if any.
func (c *checker) verify() (int, error) {
	failed := c.bad
	var firstErr error
	if c.bad > 0 {
		firstErr = fmt.Errorf("%d operations got an answer that differs from the first one for the same input", c.bad)
	}
	for i, ok := range c.seen {
		if !ok {
			continue
		}
		if err := c.compare(i); err != nil {
			failed += c.uses[i]
			if firstErr == nil {
				firstErr = fmt.Errorf("row %d: %w", i, err)
			}
		}
	}
	return failed, firstErr
}

func (c *checker) compare(i int) error {
	want, cond, err := c.ref.ForwardCond(c.rows[i])
	if err != nil {
		return err
	}
	a := c.first[i]
	if len(a.mean) != want.Dim() || len(a.spread) != want.Dim() {
		return fmt.Errorf("output dim %d/%d, want %d", len(a.mean), len(a.spread), want.Dim())
	}
	if !c.isStd {
		got := core.GaussianVec{Mean: a.mean, Var: make([]float64, len(a.spread))}
		for j, v := range a.spread {
			got.Var[j] = v - c.obsVar
		}
		return proptest.CompareVec(got, want, proptest.RelTight, cond)
	}
	got := core.GaussianVec{Mean: a.mean, Var: want.Var}
	if err := proptest.CompareVec(got, want, proptest.RelTight, cond); err != nil {
		return err
	}
	// The variance contract |v − w| ≤ tol, rewritten for standard
	// deviations: |s − √w| = |s² − w| / (s + √w).
	for j, s := range a.spread {
		w := want.Var[j] + c.obsVar
		tol := proptest.RelTight*math.Max(1, want.Var[j]) + cond.Var
		sw := math.Sqrt(w)
		if math.IsNaN(s) || (s != sw && !(math.Abs(s-sw) <= tol/(s+sw))) {
			return fmt.Errorf("std[%d] = %v, want √%v = %v (variance tolerance %.3g)", j, s, w, sw, tol)
		}
	}
	return nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
