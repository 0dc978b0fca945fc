package parparaw

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/testleak"
	"repro/parparawerr"
)

// fault_test.go is the chaos parity suite: every fault class the
// taxonomy names — transient and permanent reader failures, short
// reads, stalls, worker panics in the ring and the convert pool, and
// device-budget pressure — is injected deterministically (package
// faultinject) across ring depths and tagging modes, and each run must
// end in exactly one of the contract's outcomes: byte-identical output
// when every fault is retryable, a typed error the caller can
// errors.Is, or a clean quarantine. Every scenario also asserts the
// engine stays usable afterwards (arenas recycled, no goroutine leak).

func chaosInput(records int) []byte {
	var sb bytes.Buffer
	for i := 0; i < records; i++ {
		fmt.Fprintf(&sb, "%d,row-%d,%d.5,%v\n", i, i*7, i%97, i%3 == 0)
	}
	return sb.Bytes()
}

func chaosDepths() []int { return dedupWorkerCounts(1, 2, runtime.GOMAXPROCS(0)) }

// chaosEngine compiles opts with a ring of the given depth (0 is the
// GOMAXPROCS-derived default): the depth is the engine's
// Options.InFlight, so each depth gets its own engine.
func chaosEngine(t *testing.T, opts Options, inFlight int) *Engine {
	t.Helper()
	opts.InFlight = inFlight
	eng, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// chaosRetry is the policy the suite uses when faults are supposed to
// be survivable: generous attempts, no real sleeping (BaseDelay at the
// floor), transient-only classification.
func chaosRetry() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 1000,
		BaseDelay:   time.Nanosecond,
		MaxDelay:    time.Nanosecond,
		Retryable:   faultinject.IsTransient,
	}
}

// TestFaultTransientReadsParity: with every injected fault retryable
// (transient errors, short reads), a retried run must produce output
// byte-identical to the fault-free run — across tagging modes and ring
// depths.
func TestFaultTransientReadsParity(t *testing.T) {
	input := chaosInput(3000)
	base := testleak.Count()
	for _, mode := range []TaggingMode{RecordTagged, InlineTerminated, VectorDelimited} {
		want, err := chaosEngine(t, Options{Mode: mode}, 0).Stream(input, StreamConfig{PartitionSize: 4 << 10})
		if err != nil {
			t.Fatalf("mode=%v: fault-free reference: %v", mode, err)
		}
		if want.NumRows() != 3000 {
			t.Fatalf("mode=%v: reference rows = %d", mode, want.NumRows())
		}
		for _, inFlight := range chaosDepths() {
			eng := chaosEngine(t, Options{Mode: mode}, inFlight)
			for seed := uint64(1); seed <= 3; seed++ {
				label := fmt.Sprintf("mode=%v inflight=%d seed=%d", mode, inFlight, seed)
				fr := &faultinject.FlakyReader{
					R:              bytes.NewReader(input),
					Seed:           seed,
					TransientEvery: 4,
					ShortReads:     true,
				}
				got, err := eng.StreamReader(fr, StreamConfig{
					PartitionSize: 4 << 10,
					Retry:         chaosRetry(),
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertStreamsIdentical(t, label, got, want)
				if got.Stats.Retries == 0 {
					t.Errorf("%s: no retries recorded despite TransientEvery=4", label)
				}
			}
		}
	}
	testleak.After(t, base)
}

// TestFaultPermanentReadTyped: a reader that dies for good must surface
// as a typed ErrInput carrying the exact number of bytes consumed, at
// every ring depth, with partial results intact.
func TestFaultPermanentReadTyped(t *testing.T) {
	input := chaosInput(3000)
	base := testleak.Count()
	for _, inFlight := range chaosDepths() {
		eng := chaosEngine(t, Options{}, inFlight)
		fr := &faultinject.FlakyReader{
			R:           bytes.NewReader(input),
			Seed:        7,
			PermanentAt: int64(len(input) / 2),
		}
		res, err := eng.StreamReader(fr, StreamConfig{
			PartitionSize: 4 << 10,
			Retry:         chaosRetry(),
		})
		if !errors.Is(err, parparawerr.ErrInput) {
			t.Fatalf("inflight=%d: err = %v, want ErrInput", inFlight, err)
		}
		var ie *parparawerr.InputError
		if !errors.As(err, &ie) {
			t.Fatalf("inflight=%d: no *InputError in chain: %v", inFlight, err)
		}
		if ie.Offset != fr.Delivered() {
			t.Errorf("inflight=%d: InputError.Offset = %d, reader delivered %d", inFlight, ie.Offset, fr.Delivered())
		}
		if res == nil {
			t.Errorf("inflight=%d: no partial result alongside the typed error", inFlight)
		}
		// The engine must stay usable after the failed run.
		if clean, err := eng.Stream(input, StreamConfig{PartitionSize: 4 << 10}); err != nil {
			t.Errorf("inflight=%d: engine broken after read failure: %v", inFlight, err)
		} else if clean.NumRows() != 3000 {
			t.Errorf("inflight=%d: post-failure run rows = %d", inFlight, clean.NumRows())
		}
	}
	testleak.After(t, base)
}

// armOneShotRingPanic arms the ring-parse hook to panic exactly once,
// on the given partition. Returns a func reporting whether it fired.
func armOneShotRingPanic(t *testing.T, partition int, msg string) func() bool {
	t.Helper()
	var fired atomic.Bool
	faultinject.SetRingParse(func(p int) {
		if p == partition && fired.CompareAndSwap(false, true) {
			panic(msg)
		}
	})
	t.Cleanup(func() { faultinject.SetRingParse(nil) })
	return fired.Load
}

// TestFaultRingPanicTyped: a panic inside a partition parse must be
// contained into a typed ErrInternal carrying the partition index and a
// stack, never crash the process, and leave the engine usable.
func TestFaultRingPanicTyped(t *testing.T) {
	input := chaosInput(3000)
	base := testleak.Count()
	for _, inFlight := range chaosDepths() {
		t.Run(fmt.Sprintf("inflight=%d", inFlight), func(t *testing.T) {
			fired := armOneShotRingPanic(t, 2, "injected ring panic")
			eng := chaosEngine(t, Options{}, inFlight)
			res, err := eng.Stream(input, StreamConfig{PartitionSize: 4 << 10})
			if !fired() {
				t.Fatal("panic hook never fired; partition numbering changed?")
			}
			if !errors.Is(err, parparawerr.ErrInternal) {
				t.Fatalf("err = %v, want ErrInternal", err)
			}
			var ine *parparawerr.InternalError
			if !errors.As(err, &ine) {
				t.Fatalf("no *InternalError in chain: %v", err)
			}
			if ine.Partition != 2 {
				t.Errorf("InternalError.Partition = %d, want 2", ine.Partition)
			}
			if fmt.Sprint(ine.Value) != "injected ring panic" {
				t.Errorf("InternalError.Value = %v", ine.Value)
			}
			if len(ine.Stack) == 0 {
				t.Error("InternalError.Stack is empty")
			}
			if res == nil {
				t.Error("no partial result alongside the contained panic")
			}
			faultinject.SetRingParse(nil)
			if clean, err := eng.Stream(input, StreamConfig{PartitionSize: 4 << 10}); err != nil {
				t.Errorf("engine broken after contained panic: %v", err)
			} else if clean.NumRows() != 3000 {
				t.Errorf("post-panic run rows = %d", clean.NumRows())
			}
		})
	}
	testleak.After(t, base)
}

// TestFaultRingPanicQuarantine: the same injected panic under
// SkipBadPartitions must quarantine the one partition and finish the
// stream. Partition 2's boundary is pre-scanned at every depth, so the
// carry chain is intact and the surviving partitions are byte-identical
// to the fault-free run's.
func TestFaultRingPanicQuarantine(t *testing.T) {
	input := chaosInput(3000)
	base := testleak.Count()
	eng, err := NewEngine(Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Stream(input, StreamConfig{PartitionSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, inFlight := range chaosDepths() {
		t.Run(fmt.Sprintf("inflight=%d", inFlight), func(t *testing.T) {
			fired := armOneShotRingPanic(t, 2, "injected quarantine panic")
			eng := chaosEngine(t, Options{}, inFlight)
			res, err := eng.Stream(input, StreamConfig{
				PartitionSize:     4 << 10,
				SkipBadPartitions: true,
			})
			if !fired() {
				t.Fatal("panic hook never fired")
			}
			if err != nil {
				t.Fatalf("quarantine run failed: %v", err)
			}
			if res.Stats.QuarantinedPartitions != 1 {
				t.Fatalf("quarantined partitions = %d, want 1", res.Stats.QuarantinedPartitions)
			}
			// The output is exactly the fault-free run minus partition 2.
			if len(res.Tables) != len(want.Tables)-1 {
				t.Fatalf("%d tables, want %d (reference minus the quarantined one)",
					len(res.Tables), len(want.Tables)-1)
			}
			for i, tbl := range res.Tables {
				ref := i
				if i >= 2 {
					ref = i + 1
				}
				assertTablesIdentical(t, fmt.Sprintf("surviving partition %d", ref), tbl, want.Tables[ref])
			}
			faultinject.SetRingParse(nil)
			if clean, err := eng.Stream(input, StreamConfig{PartitionSize: 4 << 10}); err != nil {
				t.Errorf("engine broken after quarantine: %v", err)
			} else if clean.NumRows() != 3000 {
				t.Errorf("post-quarantine run rows = %d", clean.NumRows())
			}
		})
	}
	testleak.After(t, base)
}

// TestFaultConvertPanic: a panic inside a convert-pool worker is
// contained into ErrInternal (stage "convert"), or a clean quarantine
// under SkipBadPartitions.
func TestFaultConvertPanic(t *testing.T) {
	input := chaosInput(3000)
	base := testleak.Count()
	for _, inFlight := range chaosDepths() {
		for _, skip := range []bool{false, true} {
			t.Run(fmt.Sprintf("inflight=%d skip=%v", inFlight, skip), func(t *testing.T) {
				var fired atomic.Bool
				faultinject.SetConvertColumn(func(col int) {
					if fired.CompareAndSwap(false, true) {
						panic("injected convert panic")
					}
				})
				t.Cleanup(func() { faultinject.SetConvertColumn(nil) })
				eng := chaosEngine(t, Options{}, inFlight)
				res, err := eng.Stream(input, StreamConfig{
					PartitionSize:     4 << 10,
					SkipBadPartitions: skip,
				})
				if !fired.Load() {
					t.Fatal("convert hook never fired")
				}
				if skip {
					if err != nil {
						t.Fatalf("quarantine run failed: %v", err)
					}
					if res.Stats.QuarantinedPartitions != 1 {
						t.Errorf("quarantined partitions = %d, want 1", res.Stats.QuarantinedPartitions)
					}
				} else {
					if !errors.Is(err, parparawerr.ErrInternal) {
						t.Fatalf("err = %v, want ErrInternal", err)
					}
					var ine *parparawerr.InternalError
					if !errors.As(err, &ine) {
						t.Fatalf("no *InternalError in chain: %v", err)
					}
					if ine.Stage != "convert" {
						t.Errorf("InternalError.Stage = %q, want \"convert\"", ine.Stage)
					}
				}
				faultinject.SetConvertColumn(nil)
				if clean, err := eng.Stream(input, StreamConfig{PartitionSize: 4 << 10}); err != nil {
					t.Errorf("engine broken after convert panic: %v", err)
				} else if clean.NumRows() != 3000 {
					t.Errorf("post-panic run rows = %d", clean.NumRows())
				}
			})
		}
	}
	testleak.After(t, base)
}

// TestFaultBudgetPressure: the arena-pressure hook inflates every
// partition's footprint estimate past the budget. At every ring depth,
// depth 1 included, strict mode must fail with a typed ErrBudget;
// lenient mode must still complete with output identical to the
// unpressured run (one partition always admitted).
func TestFaultBudgetPressure(t *testing.T) {
	input := chaosInput(3000)
	base := testleak.Count()
	faultinject.SetBudgetCharge(func(partition int, est int64) int64 { return est + (1 << 40) })
	t.Cleanup(func() { faultinject.SetBudgetCharge(nil) })
	eng, err := NewEngine(Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Stream(input, StreamConfig{PartitionSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}

	for _, inFlight := range chaosDepths() {
		t.Run(fmt.Sprintf("inflight=%d", inFlight), func(t *testing.T) {
			eng := chaosEngine(t, Options{}, inFlight)
			// Strict: the inflated estimate alone exceeds the budget -> typed failure.
			_, err := eng.Stream(input, StreamConfig{
				PartitionSize: 4 << 10,
				DeviceBudget:  1 << 20,
				StrictBudget:  true,
			})
			if !errors.Is(err, parparawerr.ErrBudget) {
				t.Fatalf("strict: err = %v, want ErrBudget", err)
			}
			var be *parparawerr.BudgetError
			if !errors.As(err, &be) {
				t.Fatalf("strict: no *BudgetError in chain: %v", err)
			}
			if be.Estimate <= be.Budget {
				t.Errorf("strict: Estimate %d <= Budget %d", be.Estimate, be.Budget)
			}

			// Lenient: throttled to one partition at a time, but complete and identical.
			got, err := eng.Stream(input, StreamConfig{
				PartitionSize: 4 << 10,
				DeviceBudget:  1 << 20,
			})
			if err != nil {
				t.Fatalf("lenient: %v", err)
			}
			assertStreamsIdentical(t, "budget-pressure lenient", got, want)
		})
	}
	testleak.After(t, base)
}

// TestFaultStalledReaderDeadline: stalls in the reader plus a deadline
// — the run must end with a typed ErrCanceled (DeadlineExceeded
// reachable via errors.Is) and partial stats, never hang.
func TestFaultStalledReaderDeadline(t *testing.T) {
	input := chaosInput(20000)
	base := testleak.Count()
	fr := &faultinject.FlakyReader{
		R:     bytes.NewReader(input),
		Seed:  3,
		Stall: 2 * time.Millisecond,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Millisecond)
	defer cancel()
	eng := chaosEngine(t, Options{}, 2)
	res, err := eng.StreamReaderContext(ctx, fr, StreamConfig{PartitionSize: 2 << 10})
	if err == nil {
		t.Skip("run beat the deadline; nothing to assert")
	}
	if !errors.Is(err, parparawerr.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled unwrapping to DeadlineExceeded", err)
	}
	if res == nil {
		t.Fatal("no partial result alongside the cancellation")
	}
	testleak.After(t, base)
}

// TestFaultOnBadRecordDivert: malformed records (inconsistent column
// counts) are diverted to OnBadRecord with raw bytes and offsets that
// index back into the original input, at every ring depth.
func TestFaultOnBadRecordDivert(t *testing.T) {
	var sb bytes.Buffer
	badOffsets := map[int64]string{}
	for i := 0; i < 2000; i++ {
		if i%97 == 13 {
			line := fmt.Sprintf("%d,broken-%d", i, i) // 2 columns instead of 4
			badOffsets[int64(sb.Len())] = line
			sb.WriteString(line)
			sb.WriteByte('\n')
			continue
		}
		fmt.Fprintf(&sb, "%d,row-%d,%d.5,%v\n", i, i*7, i%97, i%3 == 0)
	}
	input := sb.Bytes()
	base := testleak.Count()
	for _, inFlight := range chaosDepths() {
		eng := chaosEngine(t, Options{RejectInconsistent: true}, inFlight)
		var mu sync.Mutex
		got := map[int64]string{}
		res, err := eng.Stream(input, StreamConfig{
			PartitionSize: 4 << 10,
			OnBadRecord: func(r BadRecord) {
				mu.Lock()
				got[r.Offset] = string(r.Raw)
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatalf("inflight=%d: %v", inFlight, err)
		}
		if len(got) != len(badOffsets) {
			t.Fatalf("inflight=%d: %d bad records diverted, want %d", inFlight, len(got), len(badOffsets))
		}
		for off, raw := range badOffsets {
			if got[off] != raw {
				t.Errorf("inflight=%d: offset %d = %q, want %q", inFlight, off, got[off], raw)
			}
		}
		if res.Stats.QuarantinedRecords != int64(len(badOffsets)) {
			t.Errorf("inflight=%d: QuarantinedRecords = %d, want %d",
				inFlight, res.Stats.QuarantinedRecords, len(badOffsets))
		}
	}
	testleak.After(t, base)
}
