package session

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentHammer is the arena's concurrency acceptance test (run
// under -race by tools/check.sh): many goroutines create, ingest, evict,
// and recreate disjoint device sets concurrently — with snapshot passes
// racing the whole time — and then the exact same per-device schedules are
// replayed on a fresh manager by a single goroutine. Every verdict must be
// bit-identical and no update may be lost.
func TestConcurrentHammer(t *testing.T) {
	const (
		goroutines = 8
		devsPerG   = 16
		samples    = 150
		evictAt    = 90 // each goroutine evicts half its devices here
	)
	cfg := Config{
		Channels: 2, Length: 4, Stride: 2,
		Standardize: true, WarmupWindows: 2,
		DriftThreshold: 0.6, Shards: 32,
	}

	// Deterministic per-device schedules, generated up front so the
	// concurrent run and the replay consume identical inputs.
	type step struct {
		sample []float64
		evict  bool // evict the device before ingesting this sample
	}
	schedules := make(map[string][]step)
	for g := 0; g < goroutines; g++ {
		for d := 0; d < devsPerG; d++ {
			dev := fmt.Sprintf("fleet%d/dev%d", g, d)
			rng := rand.New(rand.NewSource(int64(g*1000 + d)))
			steps := make([]step, samples)
			for i := range steps {
				val := rng.NormFloat64()
				if i > samples*2/3 {
					val *= 40
				}
				steps[i] = step{
					sample: []float64{val, -val * 0.25},
					evict:  i == evictAt && d%2 == 0,
				}
			}
			schedules[dev] = steps
		}
	}

	run := func(m *Manager, dev string) ([]Verdict, error) {
		var out []Verdict
		for _, s := range schedules[dev] {
			if s.evict {
				if !m.Evict(dev) {
					return nil, fmt.Errorf("%s: evict found no session", dev)
				}
			}
			v, err := m.Ingest(context.Background(), dev, s.sample)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", dev, err)
			}
			out = append(out, v)
		}
		return out, nil
	}

	concurrent, err := NewManager(cfg, testPredict)
	if err != nil {
		t.Fatal(err)
	}
	results := make(map[string][]Verdict)
	var resMu sync.Mutex
	var ingestWG, snapWG sync.WaitGroup
	stop := make(chan struct{})
	// Snapshot passes race the ingest storm; the only tolerable failure is
	// the documented mid-pass shrink race (an Evict between the count pass
	// and the write pass), which surfaces as ErrSnapshot.
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := concurrent.Snapshot(discardWriter{}); err != nil && !errors.Is(err, ErrSnapshot) {
				t.Errorf("racing snapshot: %v", err)
				return
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		ingestWG.Add(1)
		go func(g int) {
			defer ingestWG.Done()
			for d := 0; d < devsPerG; d++ {
				dev := fmt.Sprintf("fleet%d/dev%d", g, d)
				vs, err := run(concurrent, dev)
				if err != nil {
					t.Error(err)
					return
				}
				resMu.Lock()
				results[dev] = vs
				resMu.Unlock()
			}
		}(g)
	}
	ingestWG.Wait()
	close(stop)
	snapWG.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Zero lost updates: every counter adds up exactly.
	st := concurrent.Stats()
	totalSamples := int64(goroutines * devsPerG * samples)
	if st.Ingested != totalSamples {
		t.Fatalf("ingested %d, want %d", st.Ingested, totalSamples)
	}
	wantCreated := int64(goroutines*devsPerG) + int64(goroutines*devsPerG/2)
	if st.Created != wantCreated {
		t.Fatalf("created %d, want %d", st.Created, wantCreated)
	}
	if st.EvictedExplicit != int64(goroutines*devsPerG/2) {
		t.Fatalf("evicted %d, want %d", st.EvictedExplicit, goroutines*devsPerG/2)
	}
	if st.Resident != goroutines*devsPerG {
		t.Fatalf("resident %d, want %d", st.Resident, goroutines*devsPerG)
	}
	if st.Windows != st.Accepted+st.Escalated {
		t.Fatalf("windows %d != accepted %d + escalated %d", st.Windows, st.Accepted, st.Escalated)
	}

	// Single-goroutine replay: identical verdicts, bit for bit.
	replay, err := NewManager(cfg, testPredict)
	if err != nil {
		t.Fatal(err)
	}
	for dev := range schedules {
		want := results[dev]
		got, err := run(replay, dev)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d verdicts vs %d", dev, len(got), len(want))
		}
		for i := range got {
			if !verdictsEqual(got[i], want[i]) {
				t.Fatalf("%s: verdict %d diverged between concurrent run and replay:\n conc %+v\n repl %+v",
					dev, i, want[i], got[i])
			}
		}
	}
	if rs := replay.Stats(); rs.Windows != st.Windows || rs.Accepted != st.Accepted ||
		rs.Escalated != st.Escalated || rs.NonFinite != st.NonFinite {
		t.Fatalf("replay stats %+v != concurrent stats %+v", rs, st)
	}

	// Close stops intake for every device, resident or new.
	if err := concurrent.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, dev := range []string{"fleet0/dev1", "new"} {
		if _, err := concurrent.Ingest(context.Background(), dev, []float64{1, 1}); !errors.Is(err, ErrClosed) {
			t.Fatalf("ingest %q after Close: err = %v, want ErrClosed", dev, err)
		}
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
