// ring.go is the streaming pipeline: a scheduler reads each partition
// and assembles carry + fresh bytes in a slot's arena, up to
// Config.InFlight full kernel pipelines run concurrently on worker
// goroutines, and an emit stage releases tables in input order.
//
// The enabler is breaking the carry-over dependency: partition i+1's
// input cannot be assembled until it is known how many of partition i's
// bytes belong to complete records. The parse finds that boundary in
// its emit stage, before it tags, partitions and converts, and
// publishes it there (Partition.OnBoundary). The scheduler dispatches
// partition i, waits for that one boundary message, and assembles and
// dispatches partition i+1 while partition i finishes: no goroutine
// walks a partition a second time to learn its successor's context. A
// parse that publishes nothing (an unsettled first partition, whose
// header, skipped rows or inferred schema are still open, or UTF-16
// input, whose remainder is mapped back to raw bytes only at the end)
// sends its CompleteBytes when it finishes, and its successor waits for
// the whole parse (Stats.SerialFallbacks).
//
// At depth 1 the ring is Figure 7's double buffer, the schedule
// Simulate models: the scheduler's read of partition i+1 (host buffer)
// overlaps the rest of partition i's parse (the slot's arena) once i
// has published its boundary, so the read of i+2 waits on parse i; the
// emit of partition i overlaps the parse of partition i+1, so parse i+2
// waits on emit i.
//
// Memory stays bounded at ring depth × partition footprint: at most
// InFlight partitions hold an arena at once (arenas recycle through a
// free list as partitions retire), and an optional DeviceBudget gates
// admission on the estimated in-flight device bytes.
//
// Failure containment (PR 8): worker panics are recovered into typed
// parparawerr.InternalError values (safeParse), a canceled context
// unblocks the scheduler's slot and boundary waits and the budget's
// admission wait, and every exit path still drains the results channel
// — so arenas and slots are recycled and no goroutine leaks, whatever
// the failure. Under Config.SkipBadPartitions a failed partition is
// quarantined without disturbing its neighbours when its parse had
// published its boundary; one that failed before publishing has its
// boundary recovered by one Parser.Boundary walk, or drops its carry
// where Boundary declines.

package stream

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/columnar"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/faultinject"
	"repro/parparawerr"
)

// parsedPart is one partition's outcome on its way to the emit stage.
type parsedPart struct {
	idx   int
	res   PartitionResult
	arena *device.Arena
	est   int64 // device-budget charge taken at dispatch
	dur   time.Duration
	err   error
}

// job is one partition dispatched to a worker.
type job struct {
	part  Partition
	arena *device.Arena
	est   int64 // device-budget charge taken at dispatch
}

// boundary is a non-final partition's one message to the scheduler:
// the prefix of its input covered by complete records, published early
// by the parse or taken from the finished parse, or the error of a
// parse that failed before publishing.
type boundary struct {
	complete int
	early    bool // published before the parse finished
	err      error
}

// parseJob runs one dispatched parse. A non-final partition sends
// exactly one boundary message on bounds: the boundary the parse
// publishes, or, when it publishes none, the finished parse's
// CompleteBytes or error. A boundary outside the input fails the
// partition before the scheduler can slice with it. A published
// boundary that the finished parse contradicts fails the partition
// too, and that failure is not quarantinable: the next partition's
// input already holds the published carry.
func parseJob(parser Parser, j job, bounds chan<- boundary) parsedPart {
	part, n := j.part, len(j.part.Input)
	idx := part.Index
	inRange := func(complete int) error {
		if complete < 0 || complete > n {
			return fmt.Errorf("complete bytes %d outside [0,%d]: %w", complete, n,
				&parparawerr.InternalError{Partition: idx, Stage: "ring"})
		}
		return nil
	}
	published, early := false, 0
	var earlyErr error
	if !part.Final {
		part.OnBoundary = func(rem int) {
			if published {
				return
			}
			published, early = true, n-rem
			earlyErr = inRange(early)
			bounds <- boundary{complete: early, early: true, err: earlyErr}
		}
	}
	ps := time.Now()
	res, err := safeParse(parser, j.arena, part)
	dur := time.Since(ps)
	if !part.Final {
		switch {
		case !published:
			if err == nil {
				err = inRange(res.CompleteBytes)
			}
			bounds <- boundary{complete: res.CompleteBytes, err: err}
		case earlyErr != nil:
			err = earlyErr
		case err == nil && res.CompleteBytes != early:
			err = fmt.Errorf("boundary pre-scan published by the parse found %d complete bytes, the finished parse %d: %w",
				early, res.CompleteBytes, &parparawerr.InternalError{Partition: idx, Stage: "boundary"})
		}
	}
	if err != nil {
		err = fmt.Errorf("stream: partition %d: %w", idx, err)
	}
	return parsedPart{idx: idx, res: res, arena: j.arena, est: j.est, dur: dur, err: err}
}

// deviceBudget gates partition admission on estimated in-flight device
// bytes. The estimate for a new partition is the larger of its input
// size and the biggest per-partition arena footprint observed so far;
// a partition is always admitted when nothing is in flight, so the run
// progresses even under a budget smaller than one partition — unless
// the budget is strict, in which case an over-budget partition is
// denied with a typed parparawerr.BudgetError instead.
type deviceBudget struct {
	limit  int64
	strict bool
	mu     sync.Mutex
	cond   *sync.Cond
	used   int64
	peak   int64
	// cancelErr, once set, permanently fails every waiting and future
	// charge — the run is shutting down and blocked admissions must not
	// outlive it.
	cancelErr error
}

func newDeviceBudget(limit int64, strict bool) *deviceBudget {
	b := &deviceBudget{limit: limit, strict: strict}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// cancel fails all waiting and future charges with err (first cancel
// wins). Safe to call from any goroutine.
func (b *deviceBudget) cancel(err error) {
	b.mu.Lock()
	if b.cancelErr == nil {
		b.cancelErr = err
	}
	b.cond.Broadcast()
	b.mu.Unlock()
}

// charge blocks until the partition fits under the budget and returns
// the amount charged (0 when no budget is configured). It fails with
// the cancellation error when the run is shutting down, and — under a
// strict budget — with a typed BudgetError when the partition could
// never fit.
func (b *deviceBudget) charge(partition, inputLen int) (int64, error) {
	if b.limit <= 0 {
		return 0, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	est := int64(inputLen)
	if b.peak > est {
		est = b.peak
	}
	// Arena-pressure injection: the chaos suite inflates estimates here
	// to drive the budget-exhaustion paths without gigabyte inputs.
	est = faultinject.BudgetCharge(partition, est)
	if b.strict && est > b.limit {
		return 0, &parparawerr.BudgetError{Partition: partition, Estimate: est, Budget: b.limit}
	}
	for b.cancelErr == nil && b.used > 0 && b.used+est > b.limit {
		b.cond.Wait()
	}
	if b.cancelErr != nil {
		return 0, b.cancelErr
	}
	b.used += est
	return est, nil
}

// refund returns a retired partition's charge and folds its actual
// arena footprint into the estimate for future admissions.
func (b *deviceBudget) refund(est, arenaPeak int64) {
	if b.limit <= 0 {
		return
	}
	b.mu.Lock()
	b.used -= est
	if arenaPeak > b.peak {
		b.peak = arenaPeak
	}
	b.cond.Broadcast()
	b.mu.Unlock()
}

// Run streams the source through the ring. It returns the per-partition
// tables in input order. On failure the returned Result, when non-nil,
// holds the tables emitted and the statistics accumulated before the
// failure — partial progress a caller can still report.
//
// Output does not depend on the depth: the carry chain is the same at
// every depth (each carry is the remainder the partition's own parse
// reports, published early or taken from its result, and a published
// one is checked against the finished parse), every partition parses
// the same input bytes, and ordered emit preserves input order. Each
// partition's parse input is carry + fresh bytes sized to PartitionSize
// (NextFresh), so the recycled arenas stay in one size class; only a
// carry of PartitionSize or more (one record larger than a partition)
// grows the parse buffer beyond it.
func Run(cfg Config, parser Parser, src *Source) (*Result, error) {
	if cfg.PartitionSize <= 0 {
		return nil, errors.New("stream: partition size must be positive")
	}
	src.SetRetry(cfg.Retry)
	pool := cfg.Arenas
	if pool == nil {
		pool = freshArenas{}
	}
	ctx := cfg.ctx()
	src.ctx = ctx
	start := time.Now()

	inFlight := max(cfg.InFlight, 1)
	// slots bounds the partitions concurrently holding an arena; a slot
	// is taken before a partition's input is assembled and released when
	// its result reaches the emit stage.
	slots := make(chan struct{}, inFlight)
	for i := 0; i < inFlight; i++ {
		slots <- struct{}{}
	}
	arenaFree := make(chan *device.Arena, inFlight) // retired arenas awaiting reuse
	results := make(chan parsedPart, inFlight+1)
	// bounds carries each non-final partition's one boundary message.
	// The scheduler receives it before it dispatches the next partition,
	// so at most one is ever outstanding and a worker never blocks on it.
	bounds := make(chan boundary, 1)
	quit := make(chan struct{})
	var quitOnce sync.Once
	stop := func() { quitOnce.Do(func() { close(quit) }) }
	budget := newDeviceBudget(cfg.DeviceBudget, cfg.StrictBudget)

	// Cancellation watcher: a canceled context must unblock the
	// scheduler wherever it waits — the slot and boundary selects (quit)
	// and the budget's admission wait (budget.cancel). The watcher
	// itself is joined before Run returns.
	if ctx.Done() != nil {
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			select {
			case <-ctx.Done():
				budget.cancel(parparawerr.Canceled(parparawerr.NoPartition, ctx.Err()))
				stop()
			case <-watchDone:
			}
		}()
	}

	// The scheduler and the emit stage count into separate Stats: the
	// emit stage folds whole partition Stats with Add, which reads every
	// field, so sharing one struct with the scheduler would race. sched
	// is folded in once results has closed.
	var sched core.Stats
	stats := core.Stats{InFlight: inFlight}
	var arenas []*device.Arena // every arena drawn from pool

	// Workers: one per slot, started once so that dispatching a
	// partition allocates nothing. A job is sent only after its slot is
	// taken, so a worker is always about to receive it.
	jobs := make(chan job)
	var wg sync.WaitGroup
	wg.Add(inFlight)
	worker := func() {
		defer wg.Done()
		for j := range jobs {
			results <- parseJob(parser, j, bounds)
		}
	}
	for w := 0; w < inFlight; w++ {
		go worker()
	}

	// Scheduler: the single sequential spine. It reads each partition's
	// fresh bytes, assembles carry + fresh in a per-partition arena
	// buffer, hands the parse to a worker, and waits for the partition's
	// boundary message to cut the next partition's carry.
	go func() {
		defer func() {
			close(jobs)
			wg.Wait()
			close(results)
		}()
		var carry []byte
		var fill []byte
		var nextBase int64 // stream offset of the next partition's first byte
		for i := 0; ; i++ {
			// ctx is checked beside quit: the watcher may not have run
			// yet, and an already canceled run must parse nothing.
			canceled := func() bool {
				select {
				case <-quit:
				case <-ctx.Done():
				default:
					return false
				}
				if err := ctx.Err(); err != nil {
					results <- parsedPart{idx: i, err: fmt.Errorf("stream: %w", parparawerr.Canceled(i, err))}
				}
				return true
			}
			if canceled() {
				return
			}
			// The carry-over displaces fresh input so carry + fresh fills
			// one fixed PartitionSize buffer (NextFresh's contract).
			need := cfg.PartitionSize - len(carry)
			if need <= 0 {
				need = cfg.PartitionSize
			}
			rb := time.Now()
			data, last, err := src.Fill(fill, need)
			fill = data
			sched.ReadBusy += time.Since(rb)
			if err != nil {
				results <- parsedPart{idx: i, err: tagInputError(err, i)}
				return
			}
			sched.InputBytes += int64(len(data))

			select {
			case <-slots:
			case <-quit:
				canceled() // report the cancellation, if that is why we stopped
				return
			}
			var arena *device.Arena
			select {
			case arena = <-arenaFree:
			default:
				arena = pool.Get()
				arenas = append(arenas, arena)
			}
			// The retired partition that released this arena is fully on
			// the host heap; reclaim its buffers for this partition.
			arena.Reset()
			buf := device.Alloc[byte](arena, len(carry)+len(data))[:0]
			buf = append(buf, carry...)
			buf = append(buf, data...)
			sched.Partitions++
			base := nextBase

			est, err := budget.charge(i, len(buf))
			if err != nil {
				results <- parsedPart{idx: i, arena: arena,
					err: fmt.Errorf("stream: partition %d: %w", i, err)}
				return
			}
			jobs <- job{part: Partition{Index: i, Base: base, Input: buf, Final: last}, arena: arena, est: est}
			if last {
				return
			}

			// The worker owns buf from here and only reads it; the
			// scheduler reads it too, to copy the carry out, and its arena
			// is reset only when the scheduler draws it again.
			bw := time.Now()
			var b boundary
			select {
			case b = <-bounds:
			case <-quit:
				canceled()
				return
			}
			sched.BoundaryBusy += time.Since(bw)
			if !b.early {
				sched.SerialFallbacks++
			}
			complete := b.complete
			if b.err != nil {
				if !cfg.SkipBadPartitions || !quarantinable(b.err) {
					return // the worker's result carries the error to the emit stage
				}
				// The emit stage quarantines the partition. Recover its
				// boundary with one walk so the carry chain survives it;
				// where the walk is unsound, drop the pending carry with
				// the partition and start the next one fresh.
				complete = len(buf)
				if rem, ok := parser.Boundary(buf); ok && rem >= 0 && rem <= len(buf) {
					complete = len(buf) - rem
				}
			}
			carry = append(carry[:0], buf[complete:]...)
			sched.MaxCarryOver = max(sched.MaxCarryOver, len(carry))
			nextBase = base + int64(complete)
		}
	}()

	// Emit stage, on the caller's goroutine: retires partitions as they
	// arrive — recycling their arena and slot immediately, since tables
	// live on the host heap — and releases tables in input order.
	// Quarantine decisions are made here, where the typed error is first
	// seen; the scheduler takes the same decision for the carry chain.
	// results closes once the scheduler and every worker have finished.
	var tables []*columnar.Table
	var firstErr error
	errIdx := -1
	pending := make(map[int]parsedPart)
	next := 0
	emit := func(p parsedPart) {
		eb := time.Now()
		// Folding at emit keeps Records equal to the emitted tables'
		// rows, on partial results too.
		stats.Add(p.res.Stats)
		if p.res.Table != nil {
			stats.OutputBytes += p.res.Table.DataBytes()
			tables = append(tables, p.res.Table)
		}
		stats.EmitBusy += time.Since(eb)
	}
	for p := range results {
		if p.arena != nil {
			// Slot and arena travel together: results without an
			// arena (source read errors) never took a slot.
			budget.refund(p.est, p.arena.PeakBytes())
			arenaFree <- p.arena
			slots <- struct{}{}
		}
		stats.ParseBusy += p.dur
		if p.err != nil {
			if !cfg.SkipBadPartitions || !quarantinable(p.err) {
				if firstErr == nil || p.idx < errIdx {
					firstErr, errIdx = p.err, p.idx
				}
				stop()
				continue
			}
			// Quarantine: the carry chain is intact (the boundary was
			// published, recovered or dropped by the scheduler), so the
			// partition's output is dropped and ordered emit passes over
			// its empty result. Counting here keeps the counter
			// single-writer.
			p.err, p.res = nil, PartitionResult{}
			stats.QuarantinedPartitions++
		}
		if firstErr != nil {
			continue
		}
		pending[p.idx] = p
		for {
			q, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			emit(q)
			next++
		}
	}

	var deviceBytes int64
	for _, a := range arenas {
		deviceBytes += a.PeakBytes()
		pool.Put(a)
	}
	stats.Add(sched)
	stats.Retries, stats.RetriedBytes = src.RetryStats()
	// The run-level values are the ring's own, not sums over partitions.
	stats.InputBytes, stats.DeviceBytes, stats.Duration = sched.InputBytes, deviceBytes, time.Since(start)
	res := &Result{Tables: tables, Stats: stats}
	if firstErr != nil {
		return res, firstErr
	}
	return res, nil
}
