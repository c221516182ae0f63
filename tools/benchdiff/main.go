// Command benchdiff compares a freshly generated BENCH_*.json against the
// checked-in trajectory and fails (exit 1) on regressions beyond a
// configurable tolerance. It understands nothing about specific benchmark
// schemas: it walks both JSON documents in parallel and compares every
// numeric leaf present in both, classifying each by its key name —
// higher-is-better (speedup, *_per_sec, qps), lower-is-better (*_ns_per_*,
// *_micros, *_millis, latency, seconds) — and ignoring everything else
// (counts, dims, timestamps).
//
// Usage:
//
//	benchdiff -base results/BENCH_quant.json -fresh /tmp/run/BENCH_quant.json -tol 0.5
//
// The default tolerance is deliberately loose (50%): the committed numbers
// come from whatever machine recorded them, and the gate's job is to catch
// order-of-magnitude regressions (a fast path silently falling back to a slow
// one), not to police scheduler noise between unrelated boxes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchdiff: ")
	base := flag.String("base", "", "checked-in baseline JSON")
	fresh := flag.String("fresh", "", "freshly generated JSON to check")
	tol := flag.Float64("tol", 0.5, "allowed fractional regression (0.5 = 50%)")
	verbose := flag.Bool("v", false, "print every compared metric, not just regressions")
	flag.Parse()
	if *base == "" || *fresh == "" {
		log.Fatal("both -base and -fresh are required")
	}
	baseDoc, err := loadJSON(*base)
	if err != nil {
		log.Fatalf("base: %v", err)
	}
	freshDoc, err := loadJSON(*fresh)
	if err != nil {
		log.Fatalf("fresh: %v", err)
	}
	results := diffDocs(baseDoc, freshDoc, *tol)
	var regressions int
	for _, r := range results {
		if r.regressed {
			regressions++
			fmt.Printf("REGRESSION %s: base %.4g, fresh %.4g (%+.1f%%, tol %.0f%%)\n",
				r.path, r.base, r.fresh, 100*r.delta, 100**tol)
		} else if *verbose {
			fmt.Printf("ok %s: base %.4g, fresh %.4g (%+.1f%%)\n", r.path, r.base, r.fresh, 100*r.delta)
		}
	}
	if regressions > 0 {
		log.Fatalf("%d regression(s) beyond %.0f%% tolerance", regressions, 100**tol)
	}
	fmt.Printf("benchdiff: %d metrics within %.0f%% tolerance\n", len(results), 100**tol)
}

func loadJSON(path string) (any, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// metricResult is one compared leaf. delta is the signed fractional change in
// the "better" direction: negative means the fresh run is worse.
type metricResult struct {
	path        string
	base, fresh float64
	delta       float64
	regressed   bool
}

// higherBetter / lowerBetter classify a leaf key. A key matching neither is
// informational (dims, counts, raw totals) and skipped.
func higherBetter(key string) bool {
	for _, s := range []string{"speedup", "per_sec", "qps", "throughput"} {
		if strings.Contains(key, s) {
			return true
		}
	}
	return false
}

func lowerBetter(key string) bool {
	for _, s := range []string{"ns_per", "micros", "millis", "latency", "seconds", "ratio"} {
		if strings.Contains(key, s) {
			return true
		}
	}
	return false
}

// diffDocs walks base and fresh in parallel and returns a result per numeric
// leaf present in both whose key classifies as a direction. Array elements
// pair by index; objects pair by key; shape mismatches are skipped (a new
// benchmark row is not a regression). Results are sorted by path.
func diffDocs(base, fresh any, tol float64) []metricResult {
	var out []metricResult
	walk(base, fresh, "", &out, tol)
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}

func walk(base, fresh any, path string, out *[]metricResult, tol float64) {
	switch b := base.(type) {
	case map[string]any:
		f, ok := fresh.(map[string]any)
		if !ok {
			return
		}
		for k, bv := range b {
			walk(bv, f[k], path+"/"+k, out, tol)
		}
	case []any:
		f, ok := fresh.([]any)
		if !ok {
			return
		}
		n := len(b)
		if len(f) < n {
			n = len(f)
		}
		for i := 0; i < n; i++ {
			walk(b[i], f[i], fmt.Sprintf("%s[%d]", path, i), out, tol)
		}
	case float64:
		fv, ok := fresh.(float64)
		if !ok {
			return
		}
		key := path[strings.LastIndex(path, "/")+1:]
		if i := strings.IndexByte(key, '['); i >= 0 {
			key = key[:i]
		}
		if strings.HasPrefix(key, "max_") {
			return // a single-sample extreme; too noisy for a pass/fail gate
		}
		var delta float64
		switch {
		case higherBetter(key):
			if b == 0 {
				return
			}
			delta = fv/b - 1
		case lowerBetter(key):
			if fv == 0 || b == 0 {
				return // a zero time means the cell did not run; not comparable
			}
			delta = b/fv - 1
		default:
			return
		}
		*out = append(*out, metricResult{
			path: path, base: b, fresh: fv,
			delta: delta, regressed: delta < -tol,
		})
	}
}
