package parparaw

import (
	"bytes"
	"context"
	"io"
	"time"

	"repro/internal/columnar"
	"repro/internal/pcie"
)

// DefaultPartitionSize is the streaming partition size used when
// StreamOptions.PartitionSize is zero. The paper's Figure 12 finds the
// end-to-end sweet spot at 128-256 MB for multi-gigabyte inputs; 32 MB
// is a balanced default for laptop-scale runs.
const DefaultPartitionSize = 32 << 20

// Bus is a simulated full-duplex interconnect (§4.4). Host-to-device and
// device-to-host transfers overlap at full bandwidth; same-direction
// transfers serialise. The default models a PCIe 3.0 x16 link.
type Bus struct {
	b *pcie.Bus
}

// BusConfig describes a simulated interconnect.
type BusConfig struct {
	// BandwidthHtoD and BandwidthDtoH are bytes per second per
	// direction. Zero selects ~12 GB/s (PCIe 3.0 x16 effective).
	BandwidthHtoD, BandwidthDtoH float64
	// Latency is the per-transfer setup cost. Zero selects 20 µs;
	// negative disables.
	Latency time.Duration
	// TimeScale divides all simulated delays so experiments can replay
	// the paper's multi-gigabyte schedules in reasonable wall-clock
	// time. Zero means 1 (real modelled time).
	TimeScale float64
}

// NewBus returns a simulated bus.
func NewBus(cfg BusConfig) *Bus {
	return &Bus{b: pcie.New(pcie.Config{
		BandwidthHtoD: cfg.BandwidthHtoD,
		BandwidthDtoH: cfg.BandwidthDtoH,
		Latency:       cfg.Latency,
		TimeScale:     cfg.TimeScale,
	})}
}

// RetryPolicy makes a streaming run resilient to transient reader
// failures: a failed read is retried in place — the stream's byte
// accounting is exact, so the retry resumes at the exact offset of the
// failed attempt, with no loss and no duplication — up to MaxAttempts
// times with capped exponential backoff. Errors the classifier rejects
// (and exhausted retries) surface as a typed error matching ErrInput,
// carrying the exact byte offset consumed before the failure.
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
type BadRecord struct {
	Partition int
	Row       int64
	Offset    int64
	Raw       []byte
}

// StreamOptions configure a streaming parse.
type StreamOptions struct {
	// Options are the per-partition parse options. A nil Schema is
	// inferred from the first partition and then fixed for the rest, so
	// all partitions produce compatible tables.
	Options
	// PartitionSize is the bytes of raw input per partition (Figure
	// 12's x-axis). 0 uses DefaultPartitionSize.
	PartitionSize int
	// Bus is the simulated interconnect; nil uses a PCIe 3.0 x16 model.
	Bus *Bus
	// Unordered emits each partition's table as soon as its parse
	// completes instead of buffering for input order; StreamResult.Order
	// then records the input index of each emitted table. Only
	// Options.InFlight > 1 can complete partitions out of order.
	Unordered bool
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
	// partition-parse goroutine; under InFlight > 1 calls may be
	// concurrent, so the callback must be safe for concurrent use.
	OnBadRecord func(BadRecord)
	// SkipBadPartitions quarantines partitions whose parse fails with a
	// contained panic or a validation error, instead of failing the run:
	// the partition's output is dropped, counted in
	// Stats.QuarantinedPartitions, and the stream continues. When
	// the failed partition's record boundary was pre-scanned (at any
	// depth) the carry chain is intact and no neighbouring record is
	// affected. Only a serial-carry fallback partition — an unsettled
	// first partition, or UTF-16 input — drops the pending carry with
	// it, so a record straddling into it may also lose its head. Reader
	// failures and cancellation are never quarantined.
	SkipBadPartitions bool
}

// StreamStats is the Stats of a streaming run. It is the same type
// as Stats, kept as a name for callers that spell it.
type StreamStats = Stats

// StreamResult is a completed streaming parse.
type StreamResult struct {
	// Tables holds one table per partition, in input order — unless the
	// run was Unordered, in which case tables appear in completion
	// order and Order records the permutation.
	Tables []*Table
	// Order maps each emitted table to its partition's input index; it
	// is non-nil only for Unordered runs with at least one table.
	Order []int
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
// pipeline of §4.4: the input is consumed in partitions; each is
// transferred to the (simulated) device, parsed, and its columnar data
// returned — with the three stages of consecutive partitions overlapped
// to exploit the bus's full-duplex capability. Records straddling
// partition boundaries are carried over intact. It is a thin wrapper
// over StreamReader; inputs that should never be materialised in one
// buffer go straight to StreamReader.
func Stream(input []byte, opts StreamOptions) (*StreamResult, error) {
	return StreamReader(bytes.NewReader(input), opts)
}

// StreamContext is Stream with a cancellation context: see
// Engine.StreamReaderContext for the cancellation contract.
func StreamContext(ctx context.Context, input []byte, opts StreamOptions) (*StreamResult, error) {
	return StreamReaderContext(ctx, bytes.NewReader(input), opts)
}

// StreamReader parses everything r yields through the end-to-end
// streaming pipeline of §4.4, pulling fixed-size partitions from the
// reader as the device consumes them. The full input is never
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
	return e.StreamReaderContext(ctx, r, StreamConfig{
		PartitionSize:     opts.PartitionSize,
		Bus:               opts.Bus,
		Unordered:         opts.Unordered,
		DeviceBudget:      opts.DeviceBudget,
		StrictBudget:      opts.StrictBudget,
		Retry:             opts.Retry,
		OnBadRecord:       opts.OnBadRecord,
		SkipBadPartitions: opts.SkipBadPartitions,
	})
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
// pipeline with DefaultPartitionSize partitions and an instantaneous
// bus, then folded into one table, so ParseReader never materialises
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
