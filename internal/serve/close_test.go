package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestCloseIdempotent: Close may be called any number of times, from any
// goroutine; every call waits for the same drain and returns nil.
func TestCloseIdempotent(t *testing.T) {
	c := mustNew(t, Config{MaxBatch: 4, QueueDepth: 16}, echoFlush(nil, nil))
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := c.Close(ctx); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	if _, err := c.Do(ctx, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Do after Close = %v, want ErrClosed", err)
	}
}

// TestCloseConcurrent races many simultaneous Close calls (run with -race).
func TestCloseConcurrent(t *testing.T) {
	c := mustNew(t, Config{MaxBatch: 4, QueueDepth: 16}, echoFlush(nil, nil))
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Close(context.Background()); err != nil {
				t.Errorf("concurrent Close: %v", err)
			}
		}()
	}
	wg.Wait()
}

// TestCloseDuringFlush: Close calls racing an in-flight flush must all block
// until the flush completes, and the flushed request must still get its
// result — drain means drain, even when Close lands mid-batch.
func TestCloseDuringFlush(t *testing.T) {
	// Buffered: the flush may start before the test goroutine waits for it,
	// and an unbuffered non-blocking send would then drop the signal.
	flushEntered := make(chan struct{}, 1)
	releaseFlush := make(chan struct{})
	c := mustNew(t, Config{MaxBatch: 1, QueueDepth: 16}, func(reqs []int) ([]int, error) {
		select {
		case flushEntered <- struct{}{}:
		default:
		}
		<-releaseFlush
		out := make([]int, len(reqs))
		for i, r := range reqs {
			out[i] = 2 * r
		}
		return out, nil
	})

	res := make(chan int, 1)
	doErr := make(chan error, 1)
	go func() {
		v, err := c.Do(context.Background(), 21)
		doErr <- err
		res <- v
	}()
	select {
	case <-flushEntered:
	case <-time.After(5 * time.Second):
		t.Fatal("flush never started")
	}

	const closers = 8
	closed := make(chan error, closers)
	for i := 0; i < closers; i++ {
		go func() { closed <- c.Close(context.Background()) }()
	}
	// No Close may return while the flush is still blocked.
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while flush in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	// A Close bounded by an already-short context must give up without
	// affecting the others.
	shortCtx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := c.Close(shortCtx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("bounded Close = %v, want DeadlineExceeded", err)
	}

	close(releaseFlush)
	for i := 0; i < closers; i++ {
		select {
		case err := <-closed:
			if err != nil {
				t.Fatalf("Close after flush released: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close never returned after flush released")
		}
	}
	if err := <-doErr; err != nil {
		t.Fatalf("in-flight Do failed across Close: %v", err)
	}
	if v := <-res; v != 42 {
		t.Fatalf("in-flight Do result = %d, want 42", v)
	}
}
