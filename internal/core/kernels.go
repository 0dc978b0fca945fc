package core

// kernels.go decomposes the pipeline into explicit kernel stages, the
// Go analogue of the paper's fixed sequence of CUDA kernel launches.
// Each stage declares its device-buffer needs against the run's arena
// (instead of calling make on the hot path), so a streaming run that
// resets the arena between partitions re-parses every partition inside
// the same device footprint — the §4.4 property that the device
// allocations are made once and reused.

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/bitmap"
	"repro/internal/columnar"
	"repro/internal/convert"
	"repro/internal/css"
	"repro/internal/device"
	"repro/internal/dfa"
	"repro/internal/faultinject"
	"repro/internal/offsets"
	"repro/internal/scan"
	"repro/internal/statevec"
	"repro/parparawerr"
)

// kernelStage is one step of the explicit pipeline. The name labels the
// stage in the arena's per-stage high-water accounting (device timers
// keep the coarser five-phase breakdown of Figure 9).
type kernelStage struct {
	name string
	run  func(p *pipeline) error
}

// kernelPipeline is the stage sequence of §3: the two parse kernels with
// their scans interleaved, then tagging, partitioning and conversion
// (tagging and partitioning as the fused tag-scatter of tag.go). A stage
// may finish the run early by setting p.table (empty outputs).
var kernelPipeline = []kernelStage{
	{"parseVectors", (*pipeline).parseVectors},
	{"scanStates", (*pipeline).scanStates},
	{"emitBitmaps", (*pipeline).emitBitmapsStage},
	{"offsetScans", (*pipeline).offsetScans},
	{"filterRows", (*pipeline).filterRows},
	{"tagSymbols", (*pipeline).tagSymbols},
	{"partitionScatter", (*pipeline).partitionScatter},
	{"convertColumns", (*pipeline).convertColumns},
}

// KernelStageNames lists the explicit kernel stages in execution order —
// the keys of the arena's per-stage footprint accounting.
func KernelStageNames() []string {
	names := make([]string, len(kernelPipeline))
	for i, st := range kernelPipeline {
		names[i] = st.name
	}
	return names
}

func (p *pipeline) run() (*columnar.Table, error) {
	for _, st := range kernelPipeline {
		// Cancellation is observed between kernel stages: a canceled
		// context stops a partition mid-parse at the next stage boundary
		// (a launched kernel always runs to completion, like a CUDA
		// kernel after cudaLaunchKernel), surfacing a typed
		// parparawerr.ErrCanceled with the partition intact for cleanup.
		if p.ctx != nil {
			if err := p.ctx.Err(); err != nil {
				return nil, parparawerr.Canceled(p.partition, err)
			}
		}
		p.Arena.SetPhase(st.name)
		if err := st.run(p); err != nil {
			return nil, err
		}
		if p.table != nil {
			break
		}
	}
	return p.table, nil
}

// parseVectors is the first parse kernel (§3.1, Figure 3): one simulated
// DFA instance per possible start state per chunk, producing each
// chunk's state-transition vector packed into one 64-bit word (§4.5) —
// eight bytes of device memory per chunk.
//
// On a GPU the extra instances are free; on a CPU they are work, and
// they converge within about a hundred bytes. So the launch walks each
// chunk once (dfa.Machine.ChunkWordEmit): the same word, plus the
// bitmaps, counts and metadata the second kernel would emit from a
// guessed start state. Every block walks its chunks in order. Its first
// chunk guesses the machine's start state, and each later chunk the
// state its predecessor's guessed lane ended in, or the predecessor's
// first lane that ended outside the invalid sink when the guessed lane
// ended in it. The start-state scan checks every guess, and
// emitBitmapsStage walks again only the chunks it missed. A
// modelled-time device, which stands in for the paper's GPU, and a
// machine with its fused tables off take no guess: they run the paper's
// two passes, and the emit launch walks every chunk.
func (p *pipeline) parseVectors() error {
	n := len(p.input)
	p.stats.InputBytes = int64(n)
	p.chunks = (n + p.ChunkSize - 1) / p.ChunkSize
	p.stats.Chunks = p.chunks
	m := p.Machine
	p.words = device.AllocDirty[statevec.Word](p.Arena, p.chunks)
	p.bitmaps = &dfa.Bitmaps{
		Record:  bitmap.FromWords(device.Alloc[uint64](p.Arena, bitmap.WordsFor(n)), n),
		Field:   bitmap.FromWords(device.Alloc[uint64](p.Arena, bitmap.WordsFor(n)), n),
		Control: bitmap.FromWords(device.Alloc[uint64](p.Arena, bitmap.WordsFor(n)), n),
	}
	// An emit walk writes every chunk's entry of these three arrays.
	p.meta = device.AllocDirty[chunkMeta](p.Arena, p.chunks)
	p.recBase = device.AllocDirty[int64](p.Arena, p.chunks)
	p.colBase = device.AllocDirty[offsets.ColumnOffset](p.Arena, p.chunks)
	if !m.Fused() || p.Device.ModelledTime() {
		p.Device.Launch("parse", p.chunks, func(c int) {
			lo, hi := p.chunkBounds(c)
			p.words[c] = m.ChunkWord(p.input[lo:hi])
		})
		return nil
	}
	p.guess = device.AllocDirty[uint8](p.Arena, p.chunks)
	p.Device.LaunchBlocks("parse", p.chunks, func(_, first, limit int) {
		g := m.Start()
		for c := first; c < limit; c++ {
			lo, hi := p.chunkBounds(c)
			w, ce := m.ChunkWordEmit(p.input, lo, hi, g, p.bitmaps)
			p.words[c], p.guess[c] = w, g
			p.storeChunk(c, ce)
			g = nextGuess(m, w, g)
		}
	})
	return nil
}

// nextGuess is the start state guessed for the chunk after one whose
// guessed lane started in g and whose transition word is w: the state
// that lane ended in, or, when it ended in the invalid sink, the end
// state of the first lane that did not. It is the sink only when every
// lane ended there, and then it is right.
func nextGuess(m *dfa.Machine, w statevec.Word, g uint8) uint8 {
	next := w.At(g)
	if !m.IsInvalid(next) {
		return next
	}
	for s := 0; s < m.NumStates(); s++ {
		if e := w.At(uint8(s)); !m.IsInvalid(e) {
			return e
		}
	}
	return next
}

// scanStates resolves every chunk's true start state from the packed
// transition vectors (§3.1) and validates the input's end state. The
// pipeline reads each chunk's scanned vector only at the machine's
// start state, so statevec.StartStates carries that one state through
// the chunks instead of composing whole vectors.
func (p *pipeline) scanStates() error {
	n := len(p.input)
	m := p.Machine
	p.startState = device.AllocDirty[uint8](p.Arena, p.chunks)
	p.endState = statevec.StartStates(p.Device, p.Arena, "scan", m.NumStates(), p.words, m.Start(), p.startState)
	p.words = nil // dead: every start state is resolved
	// In remainder mode a non-accepting end state is expected (the tail
	// will be re-parsed with the next partition); only the invalid sink
	// is a hard failure.
	invalid := m.IsInvalid(p.endState) ||
		(!m.Accepting(p.endState) && p.Trailing == TrailingRecord)
	if invalid {
		if p.Validate {
			return &parparawerr.MalformedError{
				Partition: p.partition,
				State:     m.StateName(p.endState),
				Detail:    fmt.Sprintf("core: invalid input: DFA ends in state %q", m.StateName(p.endState)),
			}
		}
		p.stats.InvalidInput = true
	}
	p.trailing = n > 0 && m.MidRecord(p.endState) && p.Trailing == TrailingRecord
	return nil
}

// emitBitmapsStage is the second parse kernel (§3.1-3.2): each chunk,
// now knowing its start state, simulates a single DFA instance
// (dfa.Machine.Emit) and emits the record/field/control bitmap indexes
// plus per-chunk offset metadata. When the parse launch guessed, only
// the chunks whose guess the scan proved wrong walk again, each first
// clearing the bits its guessed lane set; a run that took no guess
// walks every chunk. In remainder mode it also locates the carry-over
// boundary and publishes it (Exec.OnRemainder), so a streaming caller
// can assemble the next partition while this one finishes.
func (p *pipeline) emitBitmapsStage() error {
	p.emitBitmaps()
	if p.Trailing == TrailingRemainder {
		n := len(p.input)
		if last, ok := p.bitmaps.Record.LastSetInRange(0, n); ok {
			p.remainder = n - last - 1
		} else {
			p.remainder = n
		}
		if p.onRemainder != nil {
			p.onRemainder(p.remainder)
		}
	}
	return nil
}

// offsetScans runs the record and column offset scans (§3.2, Figure 4)
// in place over the per-chunk counts and offsets the emit kernel wrote,
// resolves the column count and selection, and finishes early with an
// empty table when there is nothing to partition.
func (p *pipeline) offsetScans() error {
	d := p.Device
	totalRecs := scan.ExclusiveArena(d, p.Arena, "scan", scan.Sum[int64](), p.recBase, p.recBase)
	p.colTotal = offsets.ExclusiveColumnScanArena(d, p.Arena, "scan", p.colBase, p.colBase)

	p.numRecords = totalRecs
	if p.trailing {
		p.numRecords++
	}
	if err := p.resolveColumns(); err != nil {
		return err
	}
	if err := p.resolveSelection(); err != nil {
		return err
	}
	p.numOutRecords = p.numRecords - int64(countBelow(p.SkipRecords, p.numRecords))
	p.stats.Records = p.numOutRecords
	p.stats.Columns = len(p.selected)

	if p.numOutRecords == 0 || len(p.selected) == 0 {
		table, err := p.emptyTable()
		if err != nil {
			return err
		}
		p.table = table
		return nil
	}
	return nil
}

// convertColumns is the convert phase (§3.3): per-column CSS index
// construction, type inference, and typed columnar materialisation.
// Output buffers come from the Go heap — they outlive the run — while
// index and inference temporaries stay on the arena.
//
// A RecordTagged run reads its fields from the input, so it converts
// record blocks across all columns in device launches
// (safeConvertTagged) rather than column by column. In the inline and
// vector modes columns are independent of each other (each reads its
// own CSS and writes its own output column), so the phase runs
// them on a pool of Options.ConvertWorkers goroutines — the CPU
// substitute for the paper's block-level collaboration across a column's
// field-materialisation kernels: where the GPU fills its cores from
// within one column's launch, the simulated device additionally overlaps
// whole columns to keep its workers busy between the per-column kernel
// launches. Each worker draws device memory from its own arena shard and
// records rejects in a private shadow vector; shards drain and shadows
// OR-merge after the pool joins, so the output — column order, schema,
// and the rejected bitmap — is byte-identical to the sequential loop.
// In modelled-time mode the columns stay sequential: the paper's kernel
// launches serialise on the device stream, and the modelled makespans
// assume each launch has the whole virtual device.
func (p *pipeline) convertColumns() error {
	outFields := p.outputFields(p.headerNames)
	columns := make([]*columnar.Column, len(p.selected))
	if p.postFilter {
		p.keep = p.keptRows()
	}

	workers := p.ConvertWorkers
	if workers > len(p.selected) {
		workers = len(p.selected)
	}
	if p.Device.ModelledTime() {
		workers = 1
	}
	switch {
	case p.Mode == css.RecordTagged:
		var err error
		if columns, err = p.safeConvertTagged(outFields); err != nil {
			return err
		}
	case workers <= 1:
		for out, orig := range p.selected {
			col, err := p.safeConvertColumn(out, orig, p.Arena, outFields, p.rejected)
			if err != nil {
				return err
			}
			columns[out] = col
		}
	default:
		if err := p.convertColumnsParallel(workers, outFields, columns); err != nil {
			return err
		}
	}

	rejected := p.rejected
	if !anyTrue(rejected) {
		rejected = nil
	}
	table, err := columnar.NewTable(columnar.NewSchema(outFields...), columns, rejected)
	if err != nil {
		return err
	}
	if p.postFilter {
		table, err = p.applyPostFilter(table)
		if err != nil {
			return err
		}
	}
	p.table = table
	return nil
}

// convertBlockBytes is the input span one block of the RecordTagged
// convert launches covers, on average: small enough to stay in a core's
// cache while every column reads its fields from it.
const convertBlockBytes = 64 << 10

// safeConvertTagged is the convert phase of a RecordTagged run. Every
// column's index views the partition's field entries in the input
// (gathering a column with fields of several data runs into its own
// CSS first), and then inference and materialisation walk the records
// in blocks across all columns (convert.InferColumns,
// convert.MaterializeColumns) instead of streaming the input once per
// column. A panic anywhere here, the chaos suite's convert hook
// included, is recovered into a typed parparawerr.InternalError, as on
// the column path.
func (p *pipeline) safeConvertTagged(outFields []columnar.Field) (columns []*columnar.Column, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &parparawerr.InternalError{
				Partition: p.partition,
				Stage:     "convert",
				Value:     r,
				Stack:     debug.Stack(),
			}
		}
	}()
	d := p.Device
	ixs := make([]*css.Index, len(p.selected))
	pols := make([]convert.Policy, len(p.selected))
	for out, orig := range p.selected {
		faultinject.ConvertColumn(out)
		ix, err := p.columnIndex(out, p.Arena)
		if err != nil {
			return nil, err
		}
		p.countPostSkipped(ix)
		ixs[out], pols[out] = ix, p.policy(orig)
	}
	// Blocks of a power of two records, at most one block of the index:
	// about convertBlockBytes of input, and at least four per device
	// worker.
	n := int64(p.numOutRecords)
	want := max(1, min(n*convertBlockBytes/int64(len(p.input)+1), n/int64(4*d.Workers())))
	block := 1 << min(p.fieldShift, uint(bits.Len64(uint64(want))-1))
	if p.Schema == nil {
		for out, cl := range convert.InferColumns(d, p.Arena, "convert", ixs, block) {
			outFields[out].Type = cl.Type()
		}
	}
	return convert.MaterializeColumns(d, "convert", ixs, outFields, pols, p.rejected, block), nil
}

// policy is the convert policy of input column orig.
func (p *pipeline) policy(orig int) convert.Policy {
	pol := convert.Policy{RejectOnError: p.RejectMalformed}
	if def, ok := p.DefaultValues[orig]; ok {
		pol.Default = []byte(def)
	}
	return pol
}

// countPostSkipped adds the bytes the post filter drops from the
// column indexed by ix to postSkipped (postFilter only). The dropped
// rows were indexed; they count as skipped all the same, as under
// pushdown: each dropped field's data plus, in the inline and vector
// modes, the delimiter kept after it in the CSS.
func (p *pipeline) countPostSkipped(ix *css.Index) {
	if p.keep == nil {
		return
	}
	var dropped int64
	for r, k := range p.keep {
		switch {
		case k:
		case p.Mode == css.RecordTagged:
			dropped += int64(ix.Len(r))
		case r+1 < ix.NumFields():
			dropped += ix.Start(r+1) - ix.Start(r)
		default:
			dropped += int64(len(ix.Data)) - ix.Start(r)
		}
	}
	p.postSkipped.Add(dropped)
}

// convertColumn converts one output column: CSS slice, index, inferred
// or fixed type, materialisation. arena supplies the device memory (the
// run arena in the sequential path, a worker's shard in the parallel
// one); rejected receives reject-on-error bits (the shared vector in the
// sequential path, a worker-private shadow in the parallel one).
func (p *pipeline) convertColumn(out, orig int, arena *device.Arena, outFields []columnar.Field, rejected []bool) (*columnar.Column, error) {
	d := p.Device
	ix, err := p.columnIndex(out, arena)
	if err != nil {
		return nil, err
	}
	p.countPostSkipped(ix)
	field := outFields[out]
	if p.Schema == nil {
		field.Type = convert.InferColumnArena(d, arena, "convert", ix).Type()
		outFields[out] = field
	}
	return convert.Materialize(d, "convert", ix, field, p.policy(orig), rejected)
}

// columnIndex returns output column out's CSS index. A RecordTagged
// column views the partition's field starts and lengths in the input,
// unless one of its fields spans several data runs: then the column's
// fields are gathered into a CSS of its own. A mark-mode column indexes
// its CSS's terminators or aux marks.
func (p *pipeline) columnIndex(out int, arena *device.Arena) (*css.Index, error) {
	d := p.Device
	if p.Mode == css.RecordTagged {
		first := p.fieldEntry(uint32(out), 0)
		stride := int(p.sentinel) << p.fieldShift
		ix, err := css.Tagged(p.input, p.fieldStarts[first:], p.fieldLens[first:], int(p.numOutRecords), p.fieldShift, stride)
		if err != nil || p.multiRun[out] == 0 {
			return ix, err
		}
		return css.Gather(d, arena, "convert", ix, p.bitmaps.Control), nil
	}
	lo, hi := p.colStart[out], p.colStart[out]+p.hist[out]
	col := &css.Column{
		Mode:       p.Mode,
		Data:       p.sortedSyms[lo:hi],
		Aux:        p.sortedAux,
		AuxBase:    int(lo),
		Terminator: p.Terminator,
	}
	ix, err := col.BuildIndexArena(d, arena, "convert")
	if errors.Is(err, css.ErrFieldTooLong) {
		return nil, p.fieldTooLong(err)
	}
	if err != nil {
		return nil, err
	}
	return ix, p.alignIndex(ix, out)
}

// safeConvertColumn is convertColumn with panic containment: a panic in
// the column's index construction, inference, or materialisation —
// including one injected by the chaos suite's convert hook, which fires
// here on both the sequential and the pooled path — is recovered into a
// typed parparawerr.InternalError instead of killing the worker
// goroutine (which would deadlock the pool's WaitGroup join) or the
// process. The worker's arena shard still drains normally: the recover
// happens below the shard's defer on the call stack.
func (p *pipeline) safeConvertColumn(out, orig int, arena *device.Arena, outFields []columnar.Field, rejected []bool) (col *columnar.Column, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &parparawerr.InternalError{
				Partition: p.partition,
				Stage:     "convert",
				Value:     r,
				Stack:     debug.Stack(),
			}
		}
	}()
	faultinject.ConvertColumn(out)
	return p.convertColumn(out, orig, arena, outFields, rejected)
}

// convertColumnsParallel runs the per-column convert work on a pool of
// workers claiming columns from a shared counter. Determinism does not
// depend on the claim order: every column writes only its own slots of
// columns/outFields, reject bits OR-merge (commutative), and on error
// the lowest-indexed failing column wins regardless of which worker hit
// it first — exactly the error the sequential loop would have stopped
// at. Columns above the lowest known failure are skipped (their output
// would be discarded and they cannot change the returned error), so a
// failing parse does not pay for the whole convert stage.
func (p *pipeline) convertColumnsParallel(workers int, outFields []columnar.Field, columns []*columnar.Column) error {
	var next atomic.Int64
	var minFailed atomic.Int64
	minFailed.Store(int64(len(p.selected)))
	errs := make([]error, len(p.selected))
	shadows := make([][]bool, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			shard := p.Arena.Shard()
			defer shard.Drain()
			var shadow []bool
			if p.rejected != nil && p.RejectMalformed {
				// The shadow is arena-backed: Drain keeps it live until
				// the run's Reset, well past the merge below.
				shadow = device.Alloc[bool](shard, int(p.numOutRecords))
				shadows[w] = shadow
			}
			for {
				out := int(next.Add(1)) - 1
				if out >= len(p.selected) {
					return
				}
				if int64(out) > minFailed.Load() {
					continue
				}
				col, err := p.safeConvertColumn(out, p.selected[out], shard, outFields, shadow)
				if err != nil {
					errs[out] = err
					for {
						cur := minFailed.Load()
						if int64(out) >= cur || minFailed.CompareAndSwap(cur, int64(out)) {
							break
						}
					}
					continue
				}
				columns[out] = col
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if p.rejected != nil {
		for _, shadow := range shadows {
			for i, r := range shadow {
				if r {
					p.rejected[i] = true
				}
			}
		}
	}
	return nil
}

// emitBitmaps is the body of the second parse kernel. Per-chunk record
// counts and rel/abs column offsets (§3.2) go straight into recBase and
// colBase, which offsetScans then scans in place. Neighbouring chunks
// share at most two bitmap words, which both the walk
// (Bitmap.StoreChunkWord) and the redo's clear (Bitmap.ClearChunk)
// merge atomically, so a redone chunk never disturbs a neighbour's
// bits at any chunk size.
func (p *pipeline) emitBitmaps() {
	m := p.Machine
	if p.guess == nil {
		p.stats.ReemittedChunks = p.chunks
		p.Device.Launch("parse", p.chunks, func(c int) {
			lo, hi := p.chunkBounds(c)
			_, ce := m.Emit(p.input, lo, hi, p.startState[c], p.bitmaps)
			p.storeChunk(c, ce)
		})
		return
	}
	missed := 0
	for c, g := range p.guess {
		if g != p.startState[c] {
			missed++
		}
	}
	redo := device.AllocDirty[int32](p.Arena, missed)
	missed = 0
	for c, g := range p.guess {
		if g != p.startState[c] {
			redo[missed] = int32(c)
			missed++
		}
	}
	p.stats.ReemittedChunks = missed
	p.Device.Launch("parse", missed, func(k int) {
		c := int(redo[k])
		lo, hi := p.chunkBounds(c)
		p.bitmaps.ClearChunk(lo, hi)
		_, ce := m.Emit(p.input, lo, hi, p.startState[c], p.bitmaps)
		p.storeChunk(c, ce)
	})
}

// storeChunk writes chunk c's counts into the offset scans' arrays and
// its column-count metadata.
func (p *pipeline) storeChunk(c int, ce dfa.ChunkEmit) {
	kind := offsets.Rel
	if ce.SawRecord {
		kind = offsets.Abs
	}
	p.recBase[c] = ce.Records
	p.colBase[c] = offsets.ColumnOffset{Kind: kind, Value: ce.Fields}
	p.meta[c] = chunkMeta{relFirst: ce.Leading, sawRec: ce.SawRecord, mm: ce.Columns}
}
