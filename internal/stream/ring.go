// ring.go is the streaming pipeline: a scheduler reads each partition
// and assembles carry + fresh bytes in a slot's arena, up to
// Config.InFlight full kernel pipelines run concurrently on worker
// goroutines, and an emit stage releases tables in input order.
//
// The enabler is breaking the carry-over dependency: partition i+1's
// input cannot be assembled until it is known how many of partition i's
// bytes belong to complete records. The scheduler runs a record-boundary
// pre-scan (Parser.Boundary — a sequential walk of the parsing DFA over
// the partition) that yields the same carry length at a fraction of the
// parse's cost, so it finalises partition i+1's input and dispatches
// partition i to a worker without waiting. Whenever the boundary is not
// determinable without the full parse (first-partition header/skip
// trimming still unsettled, input needing transcoding before record
// boundaries exist), the partition falls back to the serial carry path:
// it parses inline on the scheduler, and partition i+1 waits for it.
//
// At depth 1 the ring is Figure 7's double buffer, the schedule
// Simulate models: the scheduler's read of partition i+1 (host buffer)
// overlaps the parse of partition i (the slot's arena), so the read of
// i+2 waits on parse i; the emit of partition i overlaps the parse of
// partition i+1, so parse i+2 waits on emit i.
//
// Memory stays bounded at ring depth × partition footprint: at most
// InFlight partitions hold an arena at once (arenas recycle through a
// free list as partitions retire), and an optional DeviceBudget gates
// admission on the estimated in-flight device bytes.
//
// Failure containment (PR 8): worker panics are recovered into typed
// parparawerr.InternalError values (safeParse), a canceled context
// unblocks both the scheduler's slot wait and the budget's admission
// wait, and every exit path still drains the results channel — so
// arenas and slots are recycled and no goroutine leaks, whatever the
// failure. Partitions whose record boundary was pre-scanned can be
// quarantined under Config.SkipBadPartitions without disturbing their
// neighbours: the carry chain was finalised before the worker ran.

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
	// boundaryKnown marks partitions whose carry boundary was finalised
	// by the pre-scan before the parse ran: their failure cannot corrupt
	// the carry chain, so they are candidates for quarantine.
	boundaryKnown bool
	// skipped marks a partition already quarantined by the scheduler
	// (inline serial-carry path); the emit stage only counts it.
	skipped bool
}

// job is one partition dispatched to a worker. want is the complete-byte
// count of the boundary pre-scan, which the parse must reproduce (unused
// for the final partition, which has no successor).
type job struct {
	part  Partition
	arena *device.Arena
	est   int64 // device-budget charge taken at dispatch
	want  int
}

// parseJob runs one dispatched parse and cross-checks it against the
// pre-scan. The partition's successor was assembled without waiting for
// this parse (or, for the final partition, does not exist), so a failure
// here cannot corrupt the carry chain: the result is a quarantine
// candidate.
func parseJob(parser Parser, j job) parsedPart {
	ps := time.Now()
	res, err := safeParse(parser, j.arena, j.part)
	dur := time.Since(ps)
	idx := j.part.Index
	if err == nil && !j.part.Final && res.CompleteBytes != j.want {
		// The pre-scan and the parse must agree by construction; a
		// mismatch means corrupt output, so fail loudly instead.
		err = fmt.Errorf("boundary pre-scan found %d complete bytes, parse found %d: %w",
			j.want, res.CompleteBytes, &parparawerr.InternalError{Partition: idx, Stage: "boundary"})
	}
	if err != nil {
		err = fmt.Errorf("stream: partition %d: %w", idx, err)
	}
	return parsedPart{idx: idx, res: res, arena: j.arena, est: j.est, dur: dur, err: err, boundaryKnown: true}
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
// every depth (the pre-scan computes the very remainder the parse would
// report, and dispatched parses are cross-checked against it), every
// partition parses the same input bytes, and ordered emit preserves
// input order. Each partition's parse input is carry + fresh bytes
// sized to PartitionSize (NextFresh), so the recycled arenas stay in
// one size class; only a carry of PartitionSize or more (one record
// larger than a partition) grows the parse buffer beyond it.
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
	quit := make(chan struct{})
	var quitOnce sync.Once
	stop := func() { quitOnce.Do(func() { close(quit) }) }
	budget := newDeviceBudget(cfg.DeviceBudget, cfg.StrictBudget)

	// Cancellation watcher: a canceled context must unblock the
	// scheduler wherever it waits — the slot select (quit) and the
	// budget's admission wait (budget.cancel). The watcher itself is
	// joined before Run returns.
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
			results <- parseJob(parser, j)
		}
	}
	for w := 0; w < inFlight; w++ {
		go worker()
	}

	// Scheduler: the single sequential spine. It reads each partition's
	// fresh bytes, assembles carry + fresh in a per-partition arena
	// buffer, pre-scans the record boundary to finalise the next
	// partition's carry, and hands the parse to a worker — falling back
	// to parsing inline when the boundary is ambiguous.
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
			final := last

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

			dispatched := false
			if !final {
				bb := time.Now()
				rem, ok := parser.Boundary(buf)
				sched.BoundaryBusy += time.Since(bb)
				if ok && rem >= 0 && rem <= len(buf) {
					// The next partition's input is now finalised without
					// the parse: copy the carry tail out (buf is arena
					// memory owned by the worker from here) and dispatch.
					carry = append(carry[:0], buf[len(buf)-rem:]...)
					sched.MaxCarryOver = max(sched.MaxCarryOver, len(carry))
					want := len(buf) - rem
					nextBase = base + int64(want)
					est, err := budget.charge(i, len(buf))
					if err != nil {
						results <- parsedPart{idx: i, arena: arena,
							err: fmt.Errorf("stream: partition %d: %w", i, err)}
						return
					}
					jobs <- job{part: Partition{Index: i, Base: base, Input: buf}, arena: arena, est: est, want: want}
					dispatched = true
				} else {
					sched.SerialFallbacks++
				}
			}
			if !dispatched {
				// Serial carry path: the boundary needs the full parse, or
				// this is the final partition, which has no successor to
				// assemble and goes straight to a worker.
				est, err := budget.charge(i, len(buf))
				if err != nil {
					results <- parsedPart{idx: i, arena: arena,
						err: fmt.Errorf("stream: partition %d: %w", i, err)}
					return
				}
				if final {
					jobs <- job{part: Partition{Index: i, Base: base, Input: buf, Final: true}, arena: arena, est: est}
					return
				}
				ps := time.Now()
				res, err := safeParse(parser, arena, Partition{Index: i, Base: base, Input: buf})
				dur := time.Since(ps)
				if err == nil && (res.CompleteBytes < 0 || res.CompleteBytes > len(buf)) {
					err = fmt.Errorf("complete bytes %d outside [0,%d]: %w", res.CompleteBytes, len(buf),
						&parparawerr.InternalError{Partition: i, Stage: "ring"})
				}
				if err != nil {
					if cfg.SkipBadPartitions && quarantinable(err) {
						// Quarantine on the serial carry path: the
						// partition's boundary was never determined, so
						// the pending carry is dropped with it and the
						// next partition starts fresh. The emit stage
						// counts the skip.
						nextBase = base + int64(len(buf))
						carry = carry[:0]
						results <- parsedPart{idx: i, arena: arena, est: est, dur: dur, skipped: true}
						continue
					}
					results <- parsedPart{idx: i, res: res, arena: arena, est: est, dur: dur,
						err: fmt.Errorf("stream: partition %d: %w", i, err)}
					return
				}
				nextBase = base + int64(res.CompleteBytes)
				carry = append(carry[:0], buf[res.CompleteBytes:]...)
				sched.MaxCarryOver = max(sched.MaxCarryOver, len(carry))
				results <- parsedPart{idx: i, res: res, arena: arena, est: est, dur: dur}
			}
			if final {
				return
			}
		}
	}()

	// Emit stage, on the caller's goroutine: retires partitions as they
	// arrive — recycling their arena and slot immediately, since tables
	// live on the host heap — and releases tables in input order.
	// Quarantine decisions for dispatched partitions are made here, where
	// the typed error is first seen. results closes once the scheduler
	// and every worker have finished.
	var tables []*columnar.Table
	var firstErr error
	errIdx := -1
	pending := make(map[int]parsedPart)
	next := 0
	emit := func(p parsedPart) {
		if p.skipped {
			return
		}
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
			if cfg.SkipBadPartitions && p.boundaryKnown && quarantinable(p.err) {
				// The carry chain was finalised before this parse
				// ran, so dropping the partition affects no
				// neighbour; the skipped branch below counts it.
				p.err = nil
				p.res = PartitionResult{}
				p.skipped = true
			} else {
				if firstErr == nil || p.idx < errIdx {
					firstErr, errIdx = p.err, p.idx
				}
				stop()
				continue
			}
		}
		if p.skipped {
			// Covers both quarantine paths: dispatched failures
			// converted above, and inline serial-carry failures the
			// scheduler already converted. Counting here keeps the
			// counter single-writer.
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
