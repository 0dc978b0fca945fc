package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/columnar"
	"repro/internal/device"
	"repro/internal/transcode"
	"repro/internal/utfx"
)

// Plan is an immutable, compiled parse configuration: the parsing-rules
// DFA, the resolved device, and the validated options — everything
// about a parse that does not depend on the input bytes. Compiling once
// and executing many times is what lets a long-lived service (the public
// Engine) serve repeated and concurrent parses without re-doing
// per-configuration setup, and what lets the streaming pipeline vary
// only the per-partition knobs (Exec) between partitions.
//
// A Plan is safe for concurrent Execute calls as long as each call uses
// its own arena (Exec.Arena): the plan itself is never mutated after
// Compile, the machine is immutable, and the device is documented safe
// for concurrent launches.
type Plan struct {
	opts Options // defaults resolved; Arena deliberately nil (per-run)
}

// Compile validates opts, resolves defaults (machine, device, chunk
// size, terminator), and freezes the result into a Plan. Configuration
// errors that do not depend on the input — negative or duplicate column
// selections, unsorted skip lists, a non-positive chunk size — are
// reported here, so a service can reject a bad configuration before
// accepting traffic for it.
func Compile(opts Options) (*Plan, error) {
	if opts.ConvertWorkers < 0 {
		return nil, fmt.Errorf("core: ConvertWorkers %d is negative", opts.ConvertWorkers)
	}
	if opts.InFlight < 0 {
		return nil, fmt.Errorf("core: InFlight %d is negative", opts.InFlight)
	}
	o := opts.withDefaults()
	o.Arena = nil // the arena is a per-execution resource (Exec.Arena)
	seen := make(map[int]bool, len(o.SelectColumns))
	for _, c := range o.SelectColumns {
		if c < 0 {
			return nil, fmt.Errorf("core: selected column %d is negative", c)
		}
		if seen[c] {
			return nil, fmt.Errorf("core: column %d selected twice", c)
		}
		seen[c] = true
	}
	for i, s := range o.SkipRecords {
		if i > 0 && o.SkipRecords[i-1] >= s {
			return nil, fmt.Errorf("core: SkipRecords must be strictly ascending")
		}
	}
	if o.ExpectedColumns < 0 {
		return nil, fmt.Errorf("core: ExpectedColumns %d is negative", o.ExpectedColumns)
	}
	// Where predicates are validated against the column count when it is
	// known up front (fixed schema or ExpectedColumns); otherwise only
	// the input-independent checks apply and out-of-range columns read as
	// missing fields at execution, like any ragged record.
	numCols := 0
	if o.Schema != nil {
		numCols = o.Schema.NumColumns()
	} else if o.ExpectedColumns > 0 {
		numCols = o.ExpectedColumns
	}
	for i, pr := range o.Where {
		if err := pr.Validate(numCols); err != nil {
			return nil, fmt.Errorf("core: Where[%d]: %w", i, err)
		}
	}
	return &Plan{opts: o}, nil
}

// Options returns a copy of the plan's compiled options (Arena is nil:
// it is supplied per execution).
func (p *Plan) Options() Options { return p.opts }

// Exec holds the per-run parameters of a plan execution — the knobs
// that legitimately vary between two parses sharing one compiled plan.
// The streaming pipeline is the motivating caller: it parses every
// partition with the same plan but consumes the header and skipped rows
// on the first partition only, parses all but the last partition in
// remainder (carry-over) mode, and freezes the schema inferred from the
// first partition for the rest.
type Exec struct {
	// Arena supplies the run's device memory. Nil uses a fresh arena;
	// callers that execute repeatedly should recycle one arena per
	// concurrent lane (Reset between runs) so the device footprint
	// stays fixed.
	Arena *device.Arena
	// Trailing selects final-record vs carry-over treatment of the
	// input's tail.
	Trailing TrailingMode
	// HasHeader consumes the input's first record as column names.
	HasHeader bool
	// SkipRows prunes the first n raw lines.
	SkipRows int
	// Schema fixes the output schema; nil infers it.
	Schema *columnar.Schema
	// Encoding declares the input's symbol encoding.
	Encoding utfx.Encoding
	// DetectEncoding sniffs and strips a byte-order mark first.
	DetectEncoding bool
	// ConvertWorkers, when positive, overrides the plan's convert-stage
	// worker count for this run. The streaming ring divides the plan's
	// budget across its in-flight partitions here, so InFlight ×
	// per-partition workers never oversubscribes the host.
	ConvertWorkers int
	// Ctx, when non-nil, cancels the execution: it is checked between
	// kernel stages (a launched kernel runs to completion, like a CUDA
	// kernel), so a canceled run stops mid-partition at the next stage
	// boundary with a typed parparawerr.ErrCanceled.
	Ctx context.Context
	// Partition is the streaming partition index this execution parses;
	// it stamps every typed error and bad-record report. Zero for
	// single-shot parses.
	Partition int
	// BaseOffset is the stream byte offset of input[0], so bad-record
	// reports carry absolute input offsets. For transcoded (UTF-16)
	// inputs, reported offsets and raw bytes refer to positions in the
	// UTF-8 transcription of this partition, not raw UTF-16 bytes.
	BaseOffset int64
	// OnBadRecord, when non-nil, receives every record the run flagged
	// rejected (inconsistent column count under RejectInconsistent,
	// unconvertible field under RejectMalformed) with its raw bytes and
	// offset — the graceful-degradation divert channel. The records also
	// remain flagged in the output table's rejected vector. The callback
	// runs on the executing goroutine after the kernel stages complete;
	// the Raw slice is only valid for the duration of the call.
	OnBadRecord func(BadRecord)
	// OnRemainder, when non-nil, is called once with the remainder
	// Result.Remainder will carry, as soon as the emit stage has found
	// it: before tagging, partitioning and conversion run. The streaming
	// ring assembles the next partition from it while this one finishes.
	// It is called only in TrailingRemainder mode on untranscoded input
	// (a UTF-16 remainder is mapped back to raw bytes after the kernels),
	// on the goroutine running Execute. A run that fails before its emit
	// stage never calls it.
	OnRemainder func(remainder int)
}

// BaseExec returns the plan's own per-run parameters with the given
// arena: what a plain, non-streaming parse of a whole input uses.
func (p *Plan) BaseExec(arena *device.Arena) Exec {
	return Exec{
		Arena:          arena,
		Trailing:       p.opts.Trailing,
		HasHeader:      p.opts.HasHeader,
		SkipRows:       p.opts.SkipRows,
		Schema:         p.opts.Schema,
		Encoding:       p.opts.Encoding,
		DetectEncoding: p.opts.DetectEncoding,
	}
}

// ScanRemainder returns the carry-over a TrailingRemainder parse of
// input would report — the trailing bytes after the last
// record-delimiter emission — via a single sequential DFA walk instead
// of a full pipeline run. A streamed partition's parse publishes that
// boundary itself (Exec.OnRemainder), so the ring walks a partition
// only to recover the boundary of a parse that failed before publishing
// and is quarantined. It is exact for inputs the pipeline parses
// directly (no pending header/skip trimming, no transcoding); callers
// in those modes must drop the carry instead.
func (p *Plan) ScanRemainder(input []byte) int {
	return p.opts.Machine.RecordRemainder(input)
}

// BoundarySound reports whether partition-at-a-time streaming is sound
// for this plan's machine: every record-delimiter transition must
// return to the start state, so an input cut at a record boundary
// parses from the start state exactly as it would mid-stream. This
// covers every carry the ring takes, published by a parse or recovered
// by ScanRemainder — when it is false, no streaming mode is correct and
// callers must parse the input whole. Every grammar the dfa package
// ships satisfies it; only Builder-assembled machines can fail it.
func (p *Plan) BoundarySound() bool {
	return p.opts.Machine.ResetsOnRecordDelim()
}

// Execute runs the compiled plan's kernel pipeline over input with the
// given per-run parameters. It is the execute half of the
// compile-once/execute-many split: no DFA construction, option
// validation, or device resolution happens here.
func (p *Plan) Execute(input []byte, exec Exec) (*Result, error) {
	o := p.opts
	o.Arena = exec.Arena
	if o.Arena == nil {
		o.Arena = device.NewArena()
	}
	o.Trailing = exec.Trailing
	o.HasHeader = exec.HasHeader
	o.SkipRows = exec.SkipRows
	o.Schema = exec.Schema
	o.Encoding = exec.Encoding
	o.DetectEncoding = exec.DetectEncoding
	if exec.ConvertWorkers > 0 {
		o.ConvertWorkers = exec.ConvertWorkers
	}

	start := time.Now()
	// The run times itself on a fresh device of the same configuration:
	// the timers of a device shared by concurrent runs would attribute
	// their launches to each other's phases.
	o.Device = device.New(o.Device.Config())

	var header []string
	body := input
	bomSkip := 0
	if o.DetectEncoding {
		enc, skip := transcode.DetectEncoding(body)
		o.Encoding = enc
		body = body[skip:]
		bomSkip = skip
	}
	rawLen := len(body) // raw (pre-transcode, post-BOM) length for remainder mapping
	o.Arena.SetPhase("transcode")
	switch o.Encoding {
	case utfx.UTF16LE:
		body = transcode.UTF16ToUTF8Arena(o.Device, o.Arena, "transcode", body, false)
	case utfx.UTF16BE:
		body = transcode.UTF16ToUTF8Arena(o.Device, o.Arena, "transcode", body, true)
	}
	tbody := body // the full transcoded body, before row/header trimming
	transcoded := o.Encoding == utfx.UTF16LE || o.Encoding == utfx.UTF16BE
	if o.SkipRows > 0 {
		body = pruneRows(body, o.Machine, o.SkipRows)
	}
	if o.HasHeader {
		var err error
		header, body, err = inferHeader(o.Machine, body)
		if err != nil {
			return nil, err
		}
	}

	// frontTrim is the offset of body[0] relative to input[0]: the BOM,
	// skipped rows, and the header record are consumed from the front.
	// For transcoded input, body indexes the UTF-8 transcription, so the
	// trim is measured within it (bad-record offsets are then documented
	// as positions in the transcription).
	frontTrim := int64(len(input) - len(body))
	if transcoded {
		frontTrim = int64(bomSkip + (len(tbody) - len(body)))
	}
	pl := &pipeline{
		Options:     o,
		input:       body,
		headerNames: header,
		ctx:         exec.Ctx,
		partition:   exec.Partition,
		baseOffset:  exec.BaseOffset + frontTrim,
		onBadRecord: exec.OnBadRecord,
	}
	if !transcoded {
		pl.onRemainder = exec.OnRemainder
	}
	table, err := pl.run()
	if err != nil {
		return nil, err
	}

	remainder := pl.remainder
	if transcoded && o.Trailing == TrailingRemainder {
		// The pipeline's remainder counts transcoded UTF-8 bytes, but the
		// streaming carry-over prepends *raw* input bytes to the next
		// partition. The parsed input is a suffix of the transcoded body
		// (header and skipped rows are consumed from the front), so the
		// incomplete tail lengths agree; map the complete UTF-8 prefix
		// back to its raw UTF-16 length. Everything after it — including
		// any replacement emitted for a partition-split code unit, which
		// re-parses intact once the next partition supplies the other
		// half — is carried over.
		complete := tbody[:len(tbody)-pl.remainder]
		remainder = rawLen - transcode.RawUTF16Bytes(o.Device, o.Arena, "transcode", complete)
		if remainder < 0 {
			// An odd trailing byte consumed by the header/skip prefix
			// over-counts by one raw byte; nothing is left to carry.
			remainder = 0
		}
	}

	stats := pl.stats
	// Bad-record reporting walks the record bitmap, which lives on the
	// arena: it must run before the caller resets the arena for the next
	// partition, hence here rather than lazily.
	stats.QuarantinedRecords = pl.reportBadRecords()
	stats.Duration = time.Since(start)
	stats.Phases = phaseTimes(o.Device.Timers())
	stats.DeviceBytes = o.Arena.PeakBytes()
	return &Result{Table: table, Header: header, Remainder: remainder, Stats: stats}, nil
}
