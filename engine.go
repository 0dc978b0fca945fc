package parparaw

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/columnar"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/stream"
	"repro/internal/transcode"
	"repro/internal/utfx"
	"repro/parparawerr"
)

// Engine is a reusable parsing service: one configuration compiled once
// — DFA transition tables, device, validated options —
// and served to any number of Parse/Stream calls, including concurrent
// ones. It is the serving-layer counterpart of the one-shot Parse
// function: where Parse redoes the per-configuration setup on every
// call, an Engine amortises it, and recycles device arenas through an
// internal pool so steady-state calls allocate almost nothing.
//
// An Engine is safe for concurrent use by multiple goroutines. Each
// call checks a private arena out of the pool for the duration of the
// run; the simulated device itself is documented safe for concurrent
// kernel launches. The two concurrency layers compose: a run's convert
// stage may itself fan out over a pool of up to Options.Workers
// goroutines, each working on a shard of that run's checked-out arena,
// while other calls run on their own arenas. Each call also times its
// kernel launches on a private timer, so Stats.Phases of overlapping
// calls describe each call alone.
type Engine struct {
	plan   *core.Plan
	arenas arenaPool
}

// NewEngine compiles opts into a reusable Engine. Configuration errors
// (duplicate column selections, unsorted skip lists, …) are reported
// here, before any input is accepted, as a *parparawerr.ConfigError
// (errors.Is(err, ErrConfig)).
func NewEngine(opts Options) (*Engine, error) {
	copts, err := opts.internal(core.TrailingRecord)
	if err != nil {
		return nil, &parparawerr.ConfigError{Err: err}
	}
	plan, err := core.Compile(copts)
	if err != nil {
		return nil, &parparawerr.ConfigError{Err: err}
	}
	return &Engine{plan: plan}, nil
}

// newEngineSharedPlan returns a fresh Engine over an already-compiled
// plan: same parsing rules, but a private arena pool. It is how the
// serving layer gives each tenant its own recycled device memory while
// still paying plan compilation once per configuration.
func newEngineSharedPlan(src *Engine) *Engine { return &Engine{plan: src.plan} }

// Close drains the engine's arena pool: idle recycled arenas are
// dropped immediately, and arenas checked out by in-flight runs are
// dropped when those runs release them, so the engine's reserved device
// memory falls to zero as soon as its last run finishes. The engine
// remains usable — later runs simply allocate fresh arenas and drop
// them on release — which is exactly the semantics an LRU eviction
// wants: no run in flight is ever yanked, but an evicted configuration
// stops holding memory. Close is idempotent and safe to call
// concurrently with runs.
func (e *Engine) Close() { e.arenas.close() }

// checkout takes an arena from the pool for one run. release resets it
// (returning every device buffer the run drew to the arena's free
// lists) and puts it back, so the next run on this arena is served from
// recycled memory.
func (e *Engine) checkout() *device.Arena { return e.arenas.checkout() }

func (e *Engine) release(a *device.Arena) { e.arenas.release(a) }

// arenasInUse reports the arenas currently checked out by running
// parses; reservedBytes sums the device memory held by idle recycled
// arenas. Together they are the engine's memory ledger: after Close
// and the completion of every in-flight run, both are zero.
func (e *Engine) arenasInUse() int     { return e.arenas.inUseCount() }
func (e *Engine) reservedBytes() int64 { return e.arenas.reserved() }
func (e *Engine) idleArenaCount() int  { return e.arenas.idleCount() }

// arenaPool is the engine's recycled-arena free list. It replaces a
// sync.Pool so the serving layer can account for it: how many arenas a
// run has checked out, how much device memory the idle list holds, and
// — on Close — a deterministic drain instead of waiting for a GC cycle
// to collect pooled arenas.
type arenaPool struct {
	mu     sync.Mutex
	idle   []*device.Arena
	inUse  int
	closed bool
}

func (p *arenaPool) checkout() *device.Arena {
	p.mu.Lock()
	p.inUse++
	if n := len(p.idle); n > 0 {
		a := p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return a
	}
	p.mu.Unlock()
	return device.NewArena()
}

func (p *arenaPool) release(a *device.Arena) {
	a.Reset()
	p.mu.Lock()
	p.inUse--
	if !p.closed {
		p.idle = append(p.idle, a)
	}
	p.mu.Unlock()
}

func (p *arenaPool) close() {
	p.mu.Lock()
	p.closed = true
	p.idle = nil
	p.mu.Unlock()
}

func (p *arenaPool) inUseCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inUse
}

func (p *arenaPool) idleCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

func (p *arenaPool) reserved() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var total int64
	for _, a := range p.idle {
		total += a.ReservedBytes()
	}
	return total
}

// Parse parses one input with the engine's compiled plan. Results are
// identical to the package-level Parse with the engine's options; only
// the per-call setup cost differs.
func (e *Engine) Parse(input []byte) (*Result, error) {
	return e.ParseContext(context.Background(), input)
}

// ParseContext is Parse with a cancellation context: the context is
// checked between kernel stages, so a canceled parse stops early with a
// typed error matching ErrCanceled (and context.Canceled /
// context.DeadlineExceeded).
func (e *Engine) ParseContext(ctx context.Context, input []byte) (*Result, error) {
	arena := e.checkout()
	defer e.release(arena)
	exec := e.plan.BaseExec(arena)
	exec.Ctx = ctx
	res, err := e.plan.Execute(input, exec)
	if err != nil {
		return nil, err
	}
	return &Result{Table: &Table{t: res.Table}, Header: res.Header, Stats: res.Stats}, nil
}

// ParseReader parses everything r yields. Inputs that stay under
// ReaderStreamThreshold are buffered and parsed in one shot; larger
// inputs are routed through the streaming pipeline so peak host
// buffering stays bounded (see the package-level ParseReader for the
// contract).
func (e *Engine) ParseReader(r io.Reader) (*Result, error) {
	return e.ParseReaderContext(context.Background(), r)
}

// ParseReaderContext is ParseReader with a cancellation context,
// honoured on both the buffered and the streamed route (see
// StreamReaderContext for the streaming cancellation contract).
func (e *Engine) ParseReaderContext(ctx context.Context, r io.Reader) (*Result, error) {
	threshold := ReaderStreamThreshold
	head, err := io.ReadAll(io.LimitReader(r, int64(threshold)+1))
	if err != nil {
		return nil, fmt.Errorf("parparaw: reading input: %w",
			&parparawerr.InputError{Offset: int64(len(head)), Partition: parparawerr.NoPartition, Attempts: 1, Err: err})
	}
	if len(head) <= threshold {
		return e.ParseContext(ctx, head)
	}
	if !e.plan.BoundarySound() || len(e.plan.Options().SkipRecords) > 0 {
		// The format cannot be cut at record boundaries, or SkipRecords
		// indexes records of the whole input: the streamed route is
		// unsound, so buffer the whole input and parse it in one shot.
		rest, err := io.ReadAll(r)
		if err != nil {
			return nil, fmt.Errorf("parparaw: reading input: %w",
				&parparawerr.InputError{Offset: int64(len(head) + len(rest)), Partition: parparawerr.NoPartition, Attempts: 1, Err: err})
		}
		return e.ParseContext(ctx, append(head, rest...))
	}
	sres, err := e.StreamReaderContext(ctx, io.MultiReader(bytes.NewReader(head), r), StreamConfig{})
	if err != nil {
		return nil, err
	}
	combined, err := sres.Combined()
	if err != nil {
		return nil, err
	}
	return &Result{Table: combined, Header: sres.Header, Stats: sres.Stats}, nil
}

// Stream parses an in-memory input through the end-to-end streaming
// pipeline of §4.4. It is StreamReader over the input's bytes; the
// pipeline consumes them chunk by chunk exactly as it would a file.
func (e *Engine) Stream(input []byte, cfg StreamConfig) (*StreamResult, error) {
	return e.StreamReader(bytes.NewReader(input), cfg)
}

// StreamReader parses everything r yields through the end-to-end
// streaming pipeline of §4.4: fixed-size partitions are pulled from the
// reader and parsed, up to Options.InFlight of them at once, and their
// tables emitted in input order — with the read of the next partition
// overlapping the parses in flight. Records straddling partition
// boundaries are carried over intact.
//
// The full input is never materialised: peak host buffering is bounded
// by O(PartitionSize + largest carry-over), independent of the input's
// total size, so readers backed by files or sockets larger than memory
// stream through fine. Byte-order-mark detection (DetectEncoding)
// happens once, at the first-chunk boundary, and the detected encoding
// is frozen for the whole run; the header record and skipped rows are
// consumed from the first partition only. Options carrying SkipRecords
// are refused with a typed error matching ErrConfig before anything is
// read: the list indexes records of the whole input.
func (e *Engine) StreamReader(r io.Reader, cfg StreamConfig) (*StreamResult, error) {
	return e.StreamReaderContext(context.Background(), r, cfg)
}

// StreamReaderContext is StreamReader with a cancellation context.
// Cancellation is prompt: the ring stops admitting partitions, running
// partition parses stop at their next kernel-stage boundary, every
// goroutine is joined and every arena returned, and the call reports a
// typed error matching ErrCanceled (context.Canceled and
// context.DeadlineExceeded also match via errors.Is). On failure of any
// kind the returned StreamResult, when non-nil, holds the tables
// emitted and the statistics accumulated before the failure — partial
// progress a caller can still report (the cmd/parparaw SIGINT path).
// The one wait cancellation cannot interrupt is a read already blocked
// inside the source's io.Reader: Go cannot cancel a Read in flight, so
// a stalled reader delays (but never prevents) the shutdown.
func (e *Engine) StreamReaderContext(ctx context.Context, r io.Reader, cfg StreamConfig) (*StreamResult, error) {
	if !e.plan.BoundarySound() {
		return nil, ErrUnstreamable
	}
	if len(e.plan.Options().SkipRecords) > 0 {
		return nil, &parparawerr.ConfigError{Err: errors.New("parparaw: SkipRecords indexes records of the whole input and cannot be applied per streamed partition; use Parse or ParseReader")}
	}
	partSize := cfg.PartitionSize
	if partSize <= 0 {
		partSize = DefaultPartitionSize
	}

	base := e.plan.BaseExec(nil)
	if base.DetectEncoding {
		// Only the first bytes of the stream can carry a byte-order
		// mark; detect it here, strip it, and freeze the encoding —
		// per-partition detection would mis-read every later partition
		// as ASCII.
		var head [3]byte
		n, err := io.ReadFull(r, head[:])
		if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("parparaw: reading input: %w",
				&parparawerr.InputError{Offset: int64(n), Partition: parparawerr.NoPartition, Attempts: 1, Err: err})
		}
		enc, skip := transcode.DetectEncoding(head[:n])
		base.Encoding = enc
		base.DetectEncoding = false
		r = io.MultiReader(bytes.NewReader(head[skip:n]), r)
	}

	base.OnBadRecord = cfg.OnBadRecord

	// The compiled options already cap the depth and pin it to 1 on a
	// modelled-time device.
	opts := e.plan.Options()
	inFlight := opts.InFlight

	trimming := base.HasHeader || base.SkipRows > 0
	rp := &ringParser{
		plan: e.plan,
		base: base,
		// With a fixed schema and no header or skipped rows, nothing the
		// first partition settles affects a later one, so the first
		// partition publishes its boundary too, and it parses alongside
		// the second.
		first:    base.Schema == nil || trimming,
		trimming: trimming,
		schema:   base.Schema,
		direct:   base.Encoding == utfx.ASCII || base.Encoding == utfx.UTF8,
		ctx:      ctx,
	}
	scfg := stream.Config{
		PartitionSize:     partSize,
		Ctx:               ctx,
		InFlight:          inFlight,
		DeviceBudget:      cfg.DeviceBudget,
		StrictBudget:      cfg.StrictBudget,
		SkipBadPartitions: cfg.SkipBadPartitions,
		Retry: stream.RetryPolicy{
			MaxAttempts: cfg.Retry.MaxAttempts,
			BaseDelay:   cfg.Retry.BaseDelay,
			MaxDelay:    cfg.Retry.MaxDelay,
			Retryable:   cfg.Retry.Retryable,
		},
		// The ring draws one arena per in-flight partition from the
		// engine's pool.
		Arenas: enginePool{e},
	}
	// Divide the plan's convert-worker budget across the ring so
	// InFlight × per-partition workers stays at the host's parallelism
	// instead of oversubscribing it.
	if cw := opts.ConvertWorkers / inFlight; cw < opts.ConvertWorkers {
		rp.convertWorkers = max(cw, 1)
	}

	res, err := stream.Run(scfg, rp, stream.NewSource(r))
	return streamResultFrom(rp, res), err
}

// streamResultFrom converts the internal pipeline result (possibly the
// partial result of a failed run) to the public shape. Returns nil for
// a nil res.
func streamResultFrom(rp *ringParser, res *stream.Result) *StreamResult {
	if res == nil {
		return nil
	}
	out := &StreamResult{Header: rp.header, Stats: res.Stats}
	tables := res.Tables
	for len(tables) > 0 && rp.rowless[tables[0]] {
		tables = tables[1:]
	}
	out.Tables = make([]*Table, len(tables))
	for i, t := range tables {
		out.Tables[i] = &Table{t: t}
	}
	return out
}

// enginePool adapts the engine's recycled-arena pool to the streaming
// pipeline's ArenaPool.
type enginePool struct{ e *Engine }

func (p enginePool) Get() *device.Arena  { return p.e.checkout() }
func (p enginePool) Put(a *device.Arena) { p.e.release(a) }

// ringParser adapts the engine's compiled plan to the streaming
// pipeline's Parser contract. One value serves a whole run: the ring
// calls ParseInFlight to parse partitions on their slots' arenas, each
// publishing its carry boundary from the core emit stage, and Boundary
// only to recover the boundary of a quarantined partition.
type ringParser struct {
	plan *core.Plan
	base core.Exec
	// convertWorkers, when positive, caps each partition's convert
	// stage (Exec.ConvertWorkers) so the ring's aggregate worker count
	// matches the plan's budget.
	convertWorkers int
	// ctx cancels partition parses between kernel stages.
	ctx context.Context
	// direct reports that partitions parse their raw bytes directly —
	// no UTF-16 transcode — so a DFA walk of the raw bytes finds the
	// parse's boundary.
	direct   bool
	trimming bool
	// First-partition state. Written only by parses running while first
	// is true; those publish no boundary, so the ring waits for each of
	// them to finish before it dispatches the next partition, and
	// concurrent in-flight parses only ever read the frozen values.
	first  bool
	schema *columnar.Schema
	header []string
	// rowless holds the rowless tables of the non-final partitions of a
	// run that starts with first false. Its partitions parse in flight
	// from the start, so which of them lead is known only in emit order:
	// streamResultFrom drops the rowless tables before the first table
	// with rows, as the first-partition path drops them.
	mu      sync.Mutex
	rowless map[*columnar.Table]bool
}

// Boundary finds part's record boundary by a single sequential DFA
// walk: exactly the carry-over a TrailingRemainder parse would report.
// The ring calls it only to recover the boundary of a partition whose
// parse failed before publishing and is quarantined. It declines while
// the first partition is unsettled — row pruning splits raw lines
// without DFA context, and an inferred schema waits for the first
// partition to freeze — and for UTF-16 input, whose remainder is
// defined on the transcoded bytes and mapped back (Plan.Execute), not
// on a raw walk. The ring then drops the pending carry instead.
func (p *ringParser) Boundary(part []byte) (int, bool) {
	if p.first || !p.direct {
		return 0, false
	}
	return p.plan.ScanRemainder(part), true
}

// ParseInFlight parses one partition on its own arena, concurrently
// with other partitions. Once the first partition has settled, the
// parse publishes its carry boundary from the emit stage
// (core.Exec.OnRemainder; core skips it on UTF-16 input), so the ring
// dispatches the next partition while this one finishes.
func (p *ringParser) ParseInFlight(arena *device.Arena, part stream.Partition) (stream.PartitionResult, error) {
	exec := p.base
	exec.Arena = arena
	if !p.first {
		exec.OnRemainder = part.OnBoundary
	}
	exec.Trailing = core.TrailingRemainder
	if part.Final {
		exec.Trailing = core.TrailingRecord
	}
	exec.Schema = p.schema
	exec.HasHeader = p.base.HasHeader && p.first
	exec.SkipRows = 0
	if p.first {
		exec.SkipRows = p.base.SkipRows
	}
	exec.ConvertWorkers = p.convertWorkers
	exec.Ctx = p.ctx
	exec.Partition = part.Index
	exec.BaseOffset = part.Base
	res, err := p.plan.Execute(part.Input, exec)
	if err != nil {
		return stream.PartitionResult{}, err
	}
	if p.base.Schema != nil && !p.trimming && !part.Final && res.Table.NumRows() == 0 && res.Stats.RowsPruned == 0 {
		p.mu.Lock()
		if p.rowless == nil {
			p.rowless = make(map[*columnar.Table]bool)
		}
		p.rowless[res.Table] = true
		p.mu.Unlock()
	}
	if p.first {
		// RowsPruned > 0 means the partition did hold complete data
		// records — Where just rejected them all. The header was consumed
		// and inference saw the pre-filter rows, so the first partition is
		// settled exactly as if the rows had survived.
		if !part.Final && res.Table.NumRows() == 0 && res.Stats.RowsPruned == 0 {
			if p.trimming {
				// The partition is too small to hold the skipped
				// rows, the header, and one complete record — a
				// partial header would be consumed mangled and the
				// schema would freeze on nothing. Nothing has been
				// emitted, so carry the whole partition into the
				// next, larger attempt and stay in first-partition
				// mode. The carry this accumulates is bounded by
				// the position of the first data record. The bytes
				// parse again there, so this attempt counts only
				// its invalid-input flag.
				return stream.PartitionResult{Stats: Stats{InvalidInput: res.Stats.InvalidInput}}, nil
			}
			// Without header/skip trimming there is nothing to
			// re-consume: hand back any completed rowless records
			// (comment lines) and defer the header capture and schema
			// freeze until a partition actually produces rows. The empty placeholder table's
			// shape is unsettled, so it is not emitted.
			return stream.PartitionResult{CompleteBytes: len(part.Input) - res.Remainder, Stats: res.Stats}, nil
		}
		p.header = res.Header
		if p.schema == nil && !part.Final {
			// Freeze the inferred schema so later partitions agree.
			p.schema = inputSchema(res.Table, p.plan.Options(), res.Stats.MaxColumns)
		}
		p.first = false
	}
	return stream.PartitionResult{Table: res.Table, CompleteBytes: len(part.Input) - res.Remainder, Stats: res.Stats}, nil
}

// inputSchema returns the schema a later partition must parse with to
// agree with t, the first partition's table, whose types were inferred.
// Exec.Schema is indexed by input column, but t holds only the selected
// columns, in selection order: each selected field goes back to its
// input index, and String placeholders named colN fill the columns the
// selection drops. The width is the column count the first partition
// resolved: ExpectedColumns when set, else the widest record seen.
func inputSchema(t *columnar.Table, opts core.Options, widest int) *columnar.Schema {
	if opts.SelectColumns == nil {
		return t.Schema()
	}
	width := widest
	if opts.ExpectedColumns > 0 {
		width = opts.ExpectedColumns
	}
	fields := make([]columnar.Field, width)
	for i := range fields {
		fields[i] = columnar.Field{Name: fmt.Sprintf("col%d", i), Type: columnar.String}
	}
	for out, in := range opts.SelectColumns {
		fields[in] = t.Schema().Fields[out]
	}
	return columnar.NewSchema(fields...)
}
