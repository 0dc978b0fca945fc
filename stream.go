package parparaw

import (
	"bytes"
	"context"
	"io"
	"time"

	"repro/internal/columnar"
	"repro/internal/core"
)

// DefaultPartitionSize is the streaming partition size used when
// StreamConfig.PartitionSize is zero. The paper's Figure 12 finds the
// end-to-end sweet spot at 128-256 MB for multi-gigabyte inputs; 32 MB
// is a balanced default for laptop-scale runs.
const DefaultPartitionSize = 32 << 20

// Bus is a no-op: nothing reads it.
//
// Deprecated: the streaming pipeline does not model PCIe transfers.
// Bus, BusConfig, NewBus and StreamConfig.Bus remain only so that
// existing callers compile, and will be removed.
type Bus struct{}

// BusConfig is a no-op: nothing reads it.
//
// Deprecated: see Bus.
type BusConfig struct {
	BandwidthHtoD, BandwidthDtoH float64
	Latency                      time.Duration
	TimeScale                    float64
}

// NewBus returns nil.
//
// Deprecated: see Bus.
func NewBus(BusConfig) *Bus { return nil }

// RetryPolicy makes a streaming run resilient to transient reader
// failures: a failed read is retried in place — the stream's byte
// accounting is exact, so the retry resumes at the exact offset of the
// failed attempt, with no loss and no duplication — up to MaxAttempts
// times with capped exponential backoff. Errors the classifier rejects
// (and exhausted retries) surface as a typed error matching ErrInput,
// carrying the exact byte offset consumed before the failure. A
// canceled context ends a backoff at once, with ErrCanceled.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts for one failing read
	// position (1 failed read + MaxAttempts-1 retries). Values <= 1
	// disable retrying.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles per
	// attempt. Zero means 1ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. Zero means 250ms.
	MaxDelay time.Duration
	// Retryable classifies errors worth retrying. Nil retries every
	// error (still bounded by MaxAttempts). io.EOF is never retried.
	Retryable func(error) bool
}

// BadRecord is one malformed record diverted to the OnBadRecord
// callback: its partition, output row, absolute byte offset, and raw
// bytes (without the trailing record delimiter). The Raw slice aliases
// pipeline memory and is only valid for the duration of the callback;
// copy it to retain it. For UTF-16 input, Offset and Raw refer to
// positions in the partition's UTF-8 transcription.
type BadRecord = core.BadRecord

// StreamConfig holds the per-run knobs of a streaming call. The zero
// value streams DefaultPartitionSize partitions with no budget, no
// retries and no quarantine. The ring's depth is not a per-run knob:
// it is the engine's compiled Options.InFlight.
type StreamConfig struct {
	// PartitionSize is the bytes of raw input per partition (Figure
	// 12's x-axis). 0 uses DefaultPartitionSize.
	PartitionSize int
	// Bus is ignored.
	//
	// Deprecated: see Bus.
	Bus *Bus
	// DeviceBudget, when positive, bounds the estimated device bytes of
	// the partitions concurrently in flight: the ring stops admitting
	// new partitions while the budget would be exceeded. One partition
	// is always admitted, so the run progresses under any budget —
	// unless StrictBudget is also set.
	DeviceBudget int64
	// StrictBudget fails the run with a typed error matching ErrBudget
	// when a single partition's estimated footprint alone exceeds
	// DeviceBudget, instead of admitting it anyway.
	StrictBudget bool
	// Retry is the transient-failure policy for the input reader. The
	// zero value disables retrying: the first read error fails the run.
	Retry RetryPolicy
	// OnBadRecord, when non-nil, receives every record flagged rejected
	// (inconsistent column count under RejectInconsistent, unconvertible
	// field under RejectMalformed) with its raw bytes and offset — the
	// graceful-degradation divert channel. Diverted records also remain
	// flagged in their table's rejected vector. The callback runs on a
	// partition-parse goroutine; under Options.InFlight > 1 calls may be
	// concurrent, so the callback must be safe for concurrent use.
	OnBadRecord func(BadRecord)
	// SkipBadPartitions quarantines partitions whose parse fails with a
	// contained panic or a validation error, instead of failing the run:
	// the partition's output is dropped, counted in
	// Stats.QuarantinedPartitions, and the stream continues. When the
	// failed parse had published its record boundary, or failed before
	// publishing and one walk of the partition recovers the boundary
	// (at any depth), the carry chain is intact and no neighbouring
	// record is affected. Only where that walk is unsound — an
	// unsettled first partition, or UTF-16 input — is the pending
	// carry dropped with the partition, so a record straddling into it
	// may also lose its head. Reader failures and cancellation are
	// never quarantined.
	SkipBadPartitions bool
}

// StreamOptions configure a one-shot streaming parse: the parse
// options an Engine compiles, and the per-run StreamConfig. A nil
// Schema is inferred from the first partition and then fixed for the
// rest, so all partitions produce compatible tables.
type StreamOptions struct {
	Options
	StreamConfig
}

// StreamStats is the Stats of a streaming run. It is the same type
// as Stats, kept as a name for callers that spell it.
type StreamStats = Stats

// StreamResult is a completed streaming parse.
type StreamResult struct {
	// Tables holds one table per partition, in input order.
	Tables []*Table
	// Header holds the column names from the first partition when
	// Options.HasHeader was set.
	Header []string
	// Stats counts the run: the emitted partitions' Stats folded with
	// Stats.Add, plus the ring's counters. InputBytes is the raw bytes
	// read, DeviceBytes the sum of the ring's arena peaks, and Duration
	// the wall time.
	Stats Stats
}

// Combined concatenates the per-partition tables into one.
func (r *StreamResult) Combined() (*Table, error) {
	ts := make([]*columnar.Table, len(r.Tables))
	for i, t := range r.Tables {
		ts[i] = t.t
	}
	tbl, err := columnar.Concat(ts...)
	if err != nil {
		return nil, err
	}
	return &Table{t: tbl}, nil
}

// NumRows returns the total records across all partitions.
func (r *StreamResult) NumRows() int {
	n := 0
	for _, t := range r.Tables {
		n += t.NumRows()
	}
	return n
}

// Stream parses an in-memory input end-to-end through the streaming
// pipeline of §4.4: the input is consumed in partitions, each parsed and
// its table emitted, with the read of the next partition overlapping
// the parses in flight. Records straddling partition boundaries are
// carried over intact. It is a thin wrapper over StreamReader; inputs
// that should never be materialised in one buffer go straight to
// StreamReader.
func Stream(input []byte, opts StreamOptions) (*StreamResult, error) {
	return StreamReader(bytes.NewReader(input), opts)
}

// StreamReader parses everything r yields through the end-to-end
// streaming pipeline of §4.4, pulling fixed-size partitions from the
// reader as the parses consume them. The full input is never
// materialised: peak host buffering is bounded by O(PartitionSize +
// largest carry-over), so files and network sources larger than memory
// stream through fine. Byte-order-mark detection, the header record,
// and skipped rows are handled at the first-chunk boundary; with a nil
// Schema the types inferred from the first partition are frozen for the
// rest of the run. Options carrying SkipRecords are refused (ErrConfig).
//
// Callers making repeated streaming runs with one configuration should
// construct an Engine once and use Engine.StreamReader, which this
// function wraps with a throwaway engine.
func StreamReader(r io.Reader, opts StreamOptions) (*StreamResult, error) {
	return StreamReaderContext(context.Background(), r, opts)
}

// StreamReaderContext is StreamReader with a cancellation context: see
// Engine.StreamReaderContext for the cancellation contract and the
// partial-result semantics.
func StreamReaderContext(ctx context.Context, r io.Reader, opts StreamOptions) (*StreamResult, error) {
	e, err := NewEngine(opts.Options)
	if err != nil {
		return nil, err
	}
	return e.StreamReaderContext(ctx, r, opts.StreamConfig)
}

// ReaderStreamThreshold is the input size in bytes above which
// ParseReader stops buffering the whole input and routes it through the
// streaming pipeline instead: reading to the end first would defeat the
// point of a Reader entry point for large inputs. At twice
// DefaultPartitionSize (64 MiB), inputs small enough to parse in one
// shot still take the faster single-shot path, while anything larger
// streams with bounded host buffering. It is a variable only so tests
// can lower it; services should treat it as a constant.
var ReaderStreamThreshold = 2 * DefaultPartitionSize

// ParseReader parses everything r yields. Inputs up to
// ReaderStreamThreshold bytes are buffered and parsed in one shot
// (identical to Parse); larger inputs are routed through the streaming
// pipeline with DefaultPartitionSize partitions, then folded into one
// table, so ParseReader never materialises
// more than O(threshold + output) host memory for the raw input. Inputs
// whose options carry SkipRecords, or whose format cannot be streamed,
// are buffered and parsed in one shot at any size. On the streamed
// route, type inference sees only the first partition (pass an explicit
// Schema for full determinism), Stats sums the partitions' counters and
// phases, and Stats.InputBytes counts raw streamed bytes rather than
// post-header parsed bytes.
func ParseReader(r io.Reader, opts Options) (*Result, error) {
	e, err := NewEngine(opts)
	if err != nil {
		return nil, err
	}
	return e.ParseReader(r)
}
