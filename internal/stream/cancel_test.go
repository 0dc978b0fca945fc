package stream

import (
	"context"
	"errors"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/device"
	"repro/internal/testleak"
	"repro/parparawerr"
)

// slowRingParser wraps ringLineParser with a per-parse delay so a
// cancellation has real work to land in the middle of. The inner parse,
// which publishes the boundary, runs first: the delay stands for the
// stages a real parse runs after publishing.
type slowRingParser struct {
	*ringLineParser
	delay time.Duration
}

func (p *slowRingParser) ParseInFlight(arena *device.Arena, part Partition) (PartitionResult, error) {
	res, err := p.ringLineParser.ParseInFlight(arena, part)
	time.Sleep(p.delay)
	return res, err
}

// TestCancelMidStream cancels runs at randomized points across the
// in-flight depths and asserts the contract on every exit: a typed
// ErrCanceled (or clean completion when the cancel lost the race), all
// goroutines joined, and every arena returned to the pool. Run under
// -race this is also the cancellation data-race test.
func TestCancelMidStream(t *testing.T) {
	input, _ := ringTestInput(400)
	base := testleak.Count()
	rng := uint64(0x9e3779b97f4a7c15) // deterministic cancel-point schedule
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	for _, inFlight := range []int{1, 2, 7} {
		for round := 0; round < 8; round++ {
			ctx, cancel := context.WithCancel(context.Background())
			cancelAfter := time.Duration(next(2500)) * time.Microsecond
			go func() {
				time.Sleep(cancelAfter)
				cancel()
			}()
			pool := &testArenaPool{}
			cfg := Config{
				PartitionSize: 64,
				Ctx:           ctx,
				InFlight:      inFlight,
			}
			if inFlight > 1 {
				cfg.Arenas = pool
			}
			res, err := Run(cfg, &slowRingParser{newRingLineParser(), 100 * time.Microsecond}, BytesSource(input))
			cancel()
			if err != nil {
				if !errors.Is(err, parparawerr.ErrCanceled) {
					t.Fatalf("inflight=%d round=%d: err = %v, want ErrCanceled", inFlight, round, err)
				}
				if !errors.Is(err, context.Canceled) {
					t.Errorf("inflight=%d round=%d: canceled error does not unwrap to context.Canceled: %v",
						inFlight, round, err)
				}
			}
			if res == nil {
				t.Fatalf("inflight=%d round=%d: no partial result", inFlight, round)
			}
			pool.mu.Lock()
			got, put := pool.got, pool.put
			pool.mu.Unlock()
			if got != put {
				t.Fatalf("inflight=%d round=%d: arena imbalance after cancel: %d out, %d back",
					inFlight, round, got, put)
			}
		}
	}
	testleak.After(t, base)
}

// TestCancelBeforeStart: a context canceled before Run begins must
// yield ErrCanceled without touching the parser.
func TestCancelBeforeStart(t *testing.T) {
	input, _ := ringTestInput(50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	base := testleak.Count()
	for _, inFlight := range []int{1, 4} {
		pool := &testArenaPool{}
		cfg := Config{PartitionSize: 64, Ctx: ctx, InFlight: inFlight}
		if inFlight > 1 {
			cfg.Arenas = pool
		}
		p := newRingLineParser()
		_, err := Run(cfg, p, BytesSource(input))
		if !errors.Is(err, parparawerr.ErrCanceled) {
			t.Fatalf("inflight=%d: err = %v, want ErrCanceled", inFlight, err)
		}
		if p.parses != 0 {
			t.Errorf("inflight=%d: %d partitions parsed after the context was canceled", inFlight, p.parses)
		}
		pool.mu.Lock()
		if pool.got != pool.put {
			t.Errorf("inflight=%d: arena imbalance: %d out, %d back", inFlight, pool.got, pool.put)
		}
		pool.mu.Unlock()
	}
	testleak.After(t, base)
}

// TestDeadlineExpiry: a context deadline behaves like a cancel and the
// error chain reaches context.DeadlineExceeded.
func TestDeadlineExpiry(t *testing.T) {
	input, _ := ringTestInput(400)
	base := testleak.Count()
	ctx, cancel := context.WithTimeout(context.Background(), 1500*time.Microsecond)
	defer cancel()
	pool := &testArenaPool{}
	res, err := Run(Config{
		PartitionSize: 64,
		Ctx:           ctx,
		InFlight:      4,
		Arenas:        pool,
	}, &slowRingParser{newRingLineParser(), 200 * time.Microsecond}, BytesSource(input))
	if err == nil {
		t.Skip("run finished before the deadline; nothing to assert")
	}
	if !errors.Is(err, parparawerr.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled unwrapping to DeadlineExceeded", err)
	}
	if res == nil {
		t.Fatal("no partial result alongside deadline error")
	}
	pool.mu.Lock()
	if pool.got != pool.put {
		t.Errorf("arena imbalance: %d out, %d back", pool.got, pool.put)
	}
	pool.mu.Unlock()
	testleak.After(t, base)
}

// TestCancelDuringRetryBackoff: a deadline that passes while the source
// waits out a retry backoff ends the wait at once with ErrCanceled,
// instead of sleeping through the remaining attempts and failing with
// ErrInput.
func TestCancelDuringRetryBackoff(t *testing.T) {
	base := testleak.Count()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := Run(Config{
		PartitionSize: 64,
		Ctx:           ctx,
		Retry:         RetryPolicy{MaxAttempts: 6, BaseDelay: 200 * time.Millisecond, MaxDelay: 200 * time.Millisecond},
	}, newRingLineParser(), NewSource(iotest.ErrReader(errors.New("flaky read"))))
	elapsed := time.Since(start)
	if !errors.Is(err, parparawerr.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled unwrapping to DeadlineExceeded", err)
	}
	var ce *parparawerr.CanceledError
	if errors.As(err, &ce) && ce.Partition != 0 {
		t.Errorf("canceled at partition %d, want 0", ce.Partition)
	}
	// Five backoffs of 200ms would take a second.
	if elapsed > 500*time.Millisecond {
		t.Errorf("run returned after %v; the backoff ignored the deadline", elapsed)
	}
	if res == nil {
		t.Fatal("no partial result alongside the cancellation")
	}
	testleak.After(t, base)
}
