// Package stream implements the end-to-end streaming pipeline of §4.4 /
// Figure 7: raw input is pulled from a Source one partition at a time;
// each partition is parsed and its columnar data emitted, with the
// stages of consecutive partitions overlapped. Peak host buffering is
// O(PartitionSize + carry-over), independent of the input's total size
// — the property that lets the system ingest inputs larger than memory.
// The ring moves partitions through host memory; the PCIe transfers the
// paper overlaps are priced only by Simulate, for the Figure 12/13
// experiments.
//
// The carry-over handles records straddling partition boundaries: the
// incomplete tail of partition i is prepended to partition i+1's input.
// Partition i's parse publishes that tail's length as soon as it has
// found it (Partition.OnBoundary), so partition i+1's input is
// assembled, and its parse started, while partition i is still
// tagging, partitioning and converting. Nothing walks a partition
// ahead of its parse to find the tail.
//
// Run is one pipeline at every depth: a bounded ring of Config.InFlight
// slots, each holding one partition and its device arena (ring.go).
// At depth 1 — one slot, one recycled arena — the ring keeps Figure 7's
// double-buffered schedule: the scheduler reads partition i+1 while a
// worker parses partition i, and the emit stage emits partition i
// while partition i+1 parses. Deeper rings also overlap the parses.
//
// Failure model (PR 8): every failure class surfaces as a typed
// parparawerr error — reader failures (after the Source's RetryPolicy is
// exhausted) as ErrInput with the exact byte offset, validation failures
// as ErrMalformed, context cancellation as ErrCanceled, contained worker
// panics and pipeline invariant violations as ErrInternal, and strict
// budget denials as ErrBudget. Every exit path joins the pipeline's
// goroutines and returns every arena; on failure Run additionally
// returns the partial Result emitted before the failure, so callers can
// report progress (the cmd/parparaw SIGINT path). Parse-side failures
// can optionally be quarantined (Config.SkipBadPartitions) instead of
// failing the run.
package stream

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/columnar"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/faultinject"
	"repro/parparawerr"
)

// NextFresh returns the number of fresh input bytes the next partition
// consumes: the carry-over displaces fresh input so carry + fresh
// fills one fixed PartitionSize device buffer, a carry of a full
// partition or more (one record larger than a partition) still makes
// PartitionSize bytes of progress, and the final partition takes
// whatever remains. Shared with the modelled stream of
// internal/experiments so the Figure-12/13 numbers use the real
// pipeline's partition boundaries.
func NextFresh(partitionSize, carryLen, remaining int) int {
	fresh := partitionSize - carryLen
	if fresh <= 0 {
		fresh = partitionSize
	}
	if fresh > remaining {
		fresh = remaining
	}
	return fresh
}

// Partition is one partition's parse input: the assembled bytes (carry
// tail + fresh input), its input-order index, the byte offset of its
// first byte in the stream, and whether it is the final partition —
// whose trailing bytes must be consumed as the final record.
type Partition struct {
	// Index is the partition's input-order index.
	Index int
	// Base is the byte offset of Input[0] in the stream (after any
	// byte-order mark the caller stripped).
	Base int64
	// Input is the partition's bytes: carry-over followed by fresh
	// input. It is only valid for the duration of the parse call.
	Input []byte
	// Final marks the last partition (CompleteBytes is then ignored).
	Final bool
	// OnBoundary, set by the ring on every non-final partition, takes
	// the carry-over tail length (len(Input) - CompleteBytes) the parse
	// will report, as soon as the parser knows it: the ring assembles
	// and dispatches the next partition from it while this parse
	// finishes, and fails the partition if the finished parse reports
	// another. A parser calls it at most once, on the goroutine running
	// ParseInFlight. One that never calls it makes the next partition
	// wait for the whole parse (Stats.SerialFallbacks).
	OnBoundary func(remainder int)
}

// PartitionResult is what parsing one partition yields.
type PartitionResult struct {
	// Table holds the partition's complete records in columnar form.
	Table *columnar.Table
	// CompleteBytes is the prefix of the partition's input (including
	// any prepended carry-over) covered by complete records; the rest is
	// carried over to the next partition.
	CompleteBytes int
	// Stats counts the partition's parse. The emit stage folds it into
	// the run's Stats when it emits the partition.
	Stats core.Stats
}

// Parser is the pipeline's parser contract: it parses a partition on
// a caller-supplied arena, so partitions can be in flight at once, and
// publishes the partition's carry-over boundary through
// Partition.OnBoundary as soon as it knows it, so the next partition
// can be assembled without waiting for the whole parse.
// ParseInFlight must be safe for concurrent calls on distinct arenas
// once the earlier partitions have published their boundaries.
type Parser interface {
	// Boundary returns the carry-over tail length a parse of input
	// would report, found by walking input alone (ok=false when that
	// walk is unsound, e.g. while first-partition trimming is unsettled
	// or the input needs transcoding before record boundaries exist).
	// The ring calls it only to recover the boundary of a partition
	// whose parse failed before publishing and is quarantined
	// (Config.SkipBadPartitions); where it declines, the pending carry
	// is dropped with the partition.
	Boundary(input []byte) (remainder int, ok bool)
	// ParseInFlight parses one partition on the given arena.
	ParseInFlight(arena *device.Arena, part Partition) (PartitionResult, error)
}

// Config describes the streaming pipeline.
type Config struct {
	// PartitionSize is the bytes of raw input per partition (Figure 12's
	// x-axis). Must be positive.
	PartitionSize int
	// Ctx cancels the run: the pipeline stops admitting partitions,
	// joins its goroutines, returns every arena, and reports a typed
	// parparawerr.ErrCanceled (alongside the partial Result). Nil means
	// context.Background(). A read already blocked inside the source's
	// io.Reader finishes (or fails) before the cancellation is observed
	// — Go cannot interrupt a Read in flight.
	Ctx context.Context
	// Retry is the source's transient-failure policy (see RetryPolicy).
	// The zero value disables retrying.
	Retry RetryPolicy
	// InFlight is the number of partitions the ring keeps in flight at
	// once; values below 1 mean 1. Depth 1 is one slot whose arena is
	// reset and reused by every partition — the paper's fixed device
	// footprint (§4.4).
	InFlight int
	// DeviceBudget, when positive, bounds the estimated device bytes of
	// the partitions concurrently in flight: the ring stops admitting
	// new partitions while the budget is exceeded (at least one stays
	// admitted so the run always progresses — unless StrictBudget).
	DeviceBudget int64
	// StrictBudget fails the run with a typed parparawerr.ErrBudget
	// when a single partition's estimated footprint alone exceeds
	// DeviceBudget, instead of admitting it anyway. Only meaningful
	// with a positive DeviceBudget.
	StrictBudget bool
	// SkipBadPartitions quarantines parse-side failures (contained
	// panics, validation errors) instead of failing the run: the
	// partition's output is dropped, Stats.QuarantinedPartitions
	// counts it, and the stream continues. When the failed parse had
	// published its boundary, the carry chain is intact and no
	// neighbouring record is affected. When it failed before
	// publishing, the ring recovers the boundary with one
	// Parser.Boundary walk; only where Boundary declines (an unsettled
	// first partition, UTF-16 input) is the pending carry dropped with
	// the partition, so a record straddling into it may also lose its
	// head. Reader failures, cancellation and boundary disagreements
	// are never quarantined.
	SkipBadPartitions bool
	// Arenas supplies the ring's per-slot arenas. Every arena acquired
	// during the run is returned before Run returns. Nil draws a fresh
	// arena per slot.
	Arenas ArenaPool
}

func (c Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// ArenaPool supplies device arenas to the ring, one per slot. The
// public Engine's pool of recycled arenas is the motivating
// implementation.
type ArenaPool interface {
	Get() *device.Arena
	Put(*device.Arena)
}

// freshArenas is the ArenaPool of a run without Config.Arenas.
type freshArenas struct{}

func (freshArenas) Get() *device.Arena { return device.NewArena() }
func (freshArenas) Put(*device.Arena)  {}

// Result is the outcome of a streaming run: one table per partition, in
// input order, plus run statistics.
type Result struct {
	Tables []*columnar.Table
	// Stats counts the run: the emitted partitions' Stats folded with
	// core.Stats.Add, plus the ring's own counters. InputBytes is the raw
	// bytes read, DeviceBytes the sum of the drawn arenas' peaks, and
	// Duration the wall time.
	Stats core.Stats
}

// quarantinable reports whether a partition-parse failure may be
// contained to that partition under Config.SkipBadPartitions: contained
// panics and validation failures qualify; reader failures, budget
// denials, and cancellation describe the run, not one partition, and
// boundary disagreements poison the carry chain of every later
// partition — none of those can be skipped.
func quarantinable(err error) bool {
	var ie *parparawerr.InternalError
	if errors.As(err, &ie) && ie.Stage == "boundary" {
		return false
	}
	return errors.Is(err, parparawerr.ErrInternal) || errors.Is(err, parparawerr.ErrMalformed)
}

// safeParse runs one partition parse with panic containment: a panic in
// the parser (including device-kernel panics re-raised on the calling
// goroutine) is recovered into a typed parparawerr.InternalError
// carrying the partition index and the stack, so the pipeline fails (or
// quarantines) cleanly instead of killing the process. The
// fault-injection ring hook fires here, on every parse path.
func safeParse(parser Parser, arena *device.Arena, part Partition) (res PartitionResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			stage, val := "ring", r
			var stack []byte
			if kp, ok := r.(*device.KernelPanic); ok {
				stage, val, stack = "kernel", kp.Value, kp.Stack
			} else {
				stack = debug.Stack()
			}
			err = &parparawerr.InternalError{Partition: part.Index, Stage: stage, Value: val, Stack: stack}
			res = PartitionResult{}
		}
	}()
	faultinject.RingParse(part.Index)
	return parser.ParseInFlight(arena, part)
}

// tagInputError stamps the failing partition's index into a typed
// source failure and wraps it with the stream prefix. A cancellation
// that cut a retry backoff short reads like any other cancellation.
func tagInputError(err error, idx int) error {
	var ce *parparawerr.CanceledError
	if errors.As(err, &ce) {
		ce.Partition = idx
		return fmt.Errorf("stream: %w", err)
	}
	var ie *parparawerr.InputError
	if errors.As(err, &ie) && ie.Partition == parparawerr.NoPartition {
		ie.Partition = idx
	}
	return fmt.Errorf("stream: reading input: %w", err)
}
