package stream

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/apdeepsense/apdeepsense/internal/core"
)

func calm() core.GaussianVec {
	return core.GaussianVec{Mean: []float64{0}, Var: []float64{0.01}} // std 0.1
}

func noisy() core.GaussianVec {
	return core.GaussianVec{Mean: []float64{0}, Var: []float64{4}} // std 2
}

// TestGateHysteresisEscalateEdge: the decision flips to Escalate exactly at
// the Nth consecutive over-budget check, and any intervening clean check
// resets the streak.
func TestGateHysteresisEscalateEdge(t *testing.T) {
	g, err := NewGateWithHysteresis(1.0, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Two over-budget checks: not yet escalated.
	for i := 0; i < 2; i++ {
		if d := g.Check(noisy()); d != Accept {
			t.Fatalf("over check %d: got %v before escalateAfter reached", i, d)
		}
	}
	// A clean check resets the over-streak.
	if d := g.Check(calm()); d != Accept {
		t.Fatalf("clean check: got %v", d)
	}
	for i := 0; i < 2; i++ {
		if d := g.Check(noisy()); d != Accept {
			t.Fatalf("restarted over check %d: got %v", i, d)
		}
	}
	// Third consecutive over-budget check latches.
	if d := g.Check(noisy()); d != Escalate {
		t.Fatalf("third consecutive over check: got %v, want Escalate", d)
	}
	if !g.Escalated() {
		t.Fatal("gate not latched after escalate edge")
	}
	// Stays latched on further over-budget checks.
	if d := g.Check(noisy()); d != Escalate {
		t.Fatal("latched gate accepted an over-budget check")
	}
}

// TestGateHysteresisReadmitEdge: once latched, the decision returns to
// Accept exactly at the Mth consecutive within-budget check, and an
// intervening over-budget check resets the under-streak.
func TestGateHysteresisReadmitEdge(t *testing.T) {
	g, err := NewGateWithHysteresis(1.0, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	g.Check(noisy())
	if d := g.Check(noisy()); d != Escalate {
		t.Fatal("gate did not latch after 2 over-budget checks")
	}
	// Two clean checks: still escalating.
	for i := 0; i < 2; i++ {
		if d := g.Check(calm()); d != Escalate {
			t.Fatalf("clean check %d: got %v before readmitAfter reached", i, d)
		}
	}
	// An over-budget check resets the under-streak.
	if d := g.Check(noisy()); d != Escalate {
		t.Fatal("over-budget check while latched must escalate")
	}
	for i := 0; i < 2; i++ {
		if d := g.Check(calm()); d != Escalate {
			t.Fatalf("restarted clean check %d: got %v", i, d)
		}
	}
	// Third consecutive clean check readmits.
	if d := g.Check(calm()); d != Accept {
		t.Fatalf("third consecutive clean check: got %v, want Accept", d)
	}
	if g.Escalated() {
		t.Fatal("gate still latched after readmit edge")
	}
}

// TestGateHysteresisDefaultIsLegacy: NewGate (N=M=1) decides every check
// independently — bit-for-bit the old stateless behavior.
func TestGateHysteresisDefaultIsLegacy(t *testing.T) {
	g, err := NewGate(1.0)
	if err != nil {
		t.Fatal(err)
	}
	seq := []struct {
		pred core.GaussianVec
		want Decision
	}{
		{noisy(), Escalate}, {calm(), Accept}, {noisy(), Escalate},
		{noisy(), Escalate}, {calm(), Accept}, {calm(), Accept},
	}
	for i, s := range seq {
		if d := g.Check(s.pred); d != s.want {
			t.Fatalf("check %d: got %v, want %v", i, d, s.want)
		}
	}
	acc, esc, nf := g.Stats()
	if acc != 3 || esc != 3 || nf != 0 {
		t.Fatalf("stats = %d/%d/%d, want 3/3/0", acc, esc, nf)
	}
}

// TestGateHysteresisDegenerateBypassesLatch: a non-finite prediction
// escalates immediately even when the escalate-side hysteresis has not
// tripped — unassessable uncertainty is never damped — but does not latch
// the gate by itself.
func TestGateHysteresisDegenerateBypassesLatch(t *testing.T) {
	g, err := NewGateWithHysteresis(1.0, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := core.GaussianVec{Mean: []float64{0}, Var: []float64{math.NaN()}}
	if d := g.Check(bad); d != Escalate {
		t.Fatal("degenerate prediction not escalated immediately")
	}
	if g.Escalated() {
		t.Fatal("single degenerate check latched a 3-check gate")
	}
	if _, _, nf := g.Stats(); nf != 1 {
		t.Fatalf("nonFinite = %d, want 1", nf)
	}
	// A clean check after it is accepted (readmitAfter=1, not latched).
	if d := g.Check(calm()); d != Accept {
		t.Fatal("clean check after degenerate not accepted")
	}
	// But degenerates do extend the over-streak toward the latch.
	g.Check(noisy())
	g.Check(bad)
	if d := g.Check(noisy()); d != Escalate {
		t.Fatal("third over (incl. degenerate) did not latch")
	}
	if !g.Escalated() {
		t.Fatal("gate not latched after mixed over-streak")
	}
}

// TestGateHysteresisValidation: constructor rejects out-of-range parameters.
func TestGateHysteresisValidation(t *testing.T) {
	for _, tc := range []struct{ n, m int }{{0, 1}, {1, 0}, {-1, 1}, {1, -3}} {
		if _, err := NewGateWithHysteresis(1.0, tc.n, tc.m); !errors.Is(err, ErrConfig) {
			t.Fatalf("NewGateWithHysteresis(1, %d, %d): err = %v, want ErrConfig", tc.n, tc.m, err)
		}
	}
	if _, err := NewGateWithHysteresis(0, 1, 1); !errors.Is(err, ErrConfig) {
		t.Fatal("zero maxMeanStd accepted")
	}
}

// TestHysteresisStepTable drives the shared latch over every (N, M) in
// {1,2,3}² against a reference that reads the window history instead of
// streak counters: the latch sets when the last N windows were all over
// budget (degenerate ones included), clears when the last M were all
// within it, and holds otherwise; a degenerate window escalates whatever
// the latch says. The fixed prefix puts a degenerate window on an
// unlatched and on a latched stream; random windows follow.
func TestHysteresisStepTable(t *testing.T) {
	const (
		under = iota
		over
		degen
	)
	prefix := []int{degen, under, over, over, over, degen, under, over, under, under, under, degen, degen, degen}
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 3; n++ {
		for m := 1; m <= 3; m++ {
			seq := append([]int(nil), prefix...)
			for i := 0; i < 200; i++ {
				seq = append(seq, rng.Intn(3))
			}
			var h Hysteresis
			latched := false
			sawDegenLatched, sawDegenFree := false, false
			for i, w := range seq {
				if w == degen {
					if latched {
						sawDegenLatched = true
					} else {
						sawDegenFree = true
					}
				}
				all := func(k int, pred func(int) bool) bool {
					if i+1 < k {
						return false
					}
					for _, x := range seq[i+1-k : i+1] {
						if !pred(x) {
							return false
						}
					}
					return true
				}
				switch {
				case all(n, func(x int) bool { return x != under }):
					latched = true
				case all(m, func(x int) bool { return x == under }):
					latched = false
				}
				want := Accept
				if latched || w == degen {
					want = Escalate
				}
				if got := h.Step(w == over, w == degen, n, m); got != want || h.Latched != latched {
					t.Fatalf("N=%d M=%d window %d (%v): got %v latched=%v, want %v latched=%v",
						n, m, i, seq[:i+1], got, h.Latched, want, latched)
				}
			}
			if !sawDegenLatched || !sawDegenFree {
				t.Fatalf("N=%d M=%d: degenerate window seen latched=%v, unlatched=%v", n, m, sawDegenLatched, sawDegenFree)
			}
		}
	}
}
