package core

// kernels.go decomposes the pipeline into explicit kernel stages, the
// Go analogue of the paper's fixed sequence of CUDA kernel launches.
// Each stage declares its device-buffer needs against the run's arena
// (instead of calling make on the hot path), so a streaming run that
// resets the arena between partitions re-parses every partition inside
// the same device footprint — the §4.4 property that the device
// allocations are made once and reused.

import (
	"fmt"
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
func (p *pipeline) parseVectors() error {
	n := len(p.input)
	p.stats.InputBytes = int64(n)
	p.chunks = (n + p.ChunkSize - 1) / p.ChunkSize
	p.stats.Chunks = p.chunks
	m := p.Machine
	p.words = device.AllocDirty[statevec.Word](p.Arena, p.chunks)
	p.Device.Launch("parse", p.chunks, func(c int) {
		lo, hi := p.chunkBounds(c)
		p.words[c] = m.ChunkWord(p.input[lo:hi])
	})
	return nil
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
// now knowing its start state, simulates a single DFA instance and
// emits the record/field/control bitmap indexes plus per-chunk offset
// metadata. In remainder mode it also locates the carry-over boundary.
func (p *pipeline) emitBitmapsStage() error {
	p.emitBitmaps()
	if p.Trailing == TrailingRemainder {
		n := len(p.input)
		if last, ok := p.bitmaps.record.LastSetInRange(0, n); ok {
			p.remainder = n - last - 1
		} else {
			p.remainder = n
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
	if p.numOutRecords > int64(^uint32(0)) {
		return fmt.Errorf("core: %d records exceed the 32-bit record-tag space", p.numOutRecords)
	}
	return nil
}

// convertColumns is the convert phase (§3.3): per-column CSS index
// construction, type inference, and typed columnar materialisation.
// Output buffers come from the Go heap — they outlive the run — while
// index and inference temporaries stay on the arena.
//
// Columns are independent of each other (each reads its own slice of the
// sorted payloads and writes its own output column), so the phase runs
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

	workers := p.ConvertWorkers
	if workers > len(p.selected) {
		workers = len(p.selected)
	}
	if p.Device.ModelledTime() {
		workers = 1
	}
	if workers <= 1 {
		for out, orig := range p.selected {
			col, err := p.safeConvertColumn(out, orig, p.Arena, outFields, p.rejected)
			if err != nil {
				return err
			}
			columns[out] = col
		}
	} else if err := p.convertColumnsParallel(workers, outFields, columns); err != nil {
		return err
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

// convertColumn converts one output column: CSS slice, index, inferred
// or fixed type, materialisation. arena supplies the device memory (the
// run arena in the sequential path, a worker's shard in the parallel
// one); rejected receives reject-on-error bits (the shared vector in the
// sequential path, a worker-private shadow in the parallel one).
func (p *pipeline) convertColumn(out, orig int, arena *device.Arena, outFields []columnar.Field, rejected []bool) (*columnar.Column, error) {
	d := p.Device
	lo, hi := p.colStart[out], p.colStart[out]+p.hist[out]
	cssCol := &css.Column{
		Mode:       p.Mode,
		Data:       p.sortedSyms[lo:hi],
		Terminator: p.Terminator,
	}
	if p.sortedRecs != nil {
		cssCol.RecTags = p.sortedRecs[lo:hi]
	}
	if p.sortedAux != nil {
		cssCol.Aux = p.sortedAux[lo:hi]
	}
	ix, err := cssCol.BuildIndexArena(d, arena, "convert", int(p.numOutRecords))
	if err != nil {
		return nil, err
	}
	if err := p.alignIndex(cssCol, ix, out); err != nil {
		return nil, err
	}
	field := outFields[out]
	if p.Schema == nil {
		field.Type = convert.InferColumnArena(d, arena, "convert", cssCol, ix).Type()
		outFields[out] = field
	}
	pol := convert.Policy{RejectOnError: p.RejectMalformed}
	if def, ok := p.DefaultValues[orig]; ok {
		pol.Default = []byte(def)
	}
	return convert.Materialize(d, "convert", cssCol, ix, field, pol, rejected)
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

// emitBitmaps is the body of the second parse kernel: each chunk
// simulates a single DFA instance from its known start state and records
// every symbol's interpretation in the three bitmap indexes. Per-chunk
// record counts and rel/abs column offsets (§3.2) are collected in the
// same sweep (the paper derives them from the bitmaps with popc;
// counting during emission is arithmetically identical and saves a
// pass) and written straight into recBase and colBase, which
// offsetScans then scans in place. The bitmap words, chunk metadata and
// offset arrays are arena-backed.
//
// The record, field and control bits of the backing word under the
// cursor accumulate in registers and are written once, when the cursor
// sets a bit in a later word and at the chunk's end, through
// Bitmap.StoreChunkWord: a plain store for a word the chunk owns, an
// atomic OR only for the at most two words it shares with its
// neighbours. Words with no bit set are never written; device.Alloc
// zeroed them.
//
// On the fused fast path each byte costs one fused-table load, and the
// skip-ahead scanners jump over runs of data-emitting self-loops (field
// text) eight bytes per test: no bitmap bit is set and no metadata
// changes inside such a run, so the cursor simply advances.
func (p *pipeline) emitBitmaps() {
	n := len(p.input)
	m := p.Machine
	bms := &bitmaps{
		record:  bitmap.FromWords(device.Alloc[uint64](p.Arena, bitmap.WordsFor(n)), n),
		field:   bitmap.FromWords(device.Alloc[uint64](p.Arena, bitmap.WordsFor(n)), n),
		control: bitmap.FromWords(device.Alloc[uint64](p.Arena, bitmap.WordsFor(n)), n),
	}
	p.bitmaps = bms
	// The kernel writes every chunk's entry of these three arrays.
	p.meta = device.AllocDirty[chunkMeta](p.Arena, p.chunks)
	p.recBase = device.AllocDirty[int64](p.Arena, p.chunks)
	p.colBase = device.AllocDirty[offsets.ColumnOffset](p.Arena, p.chunks)
	fused := m.Fused()
	skip := m.SkipScanners()
	p.Device.Launch("parse", p.chunks, func(c int) {
		lo, hi := p.chunkBounds(c)
		s := p.startState[c]
		cm := chunkMeta{}
		var recs int64
		relCol := 0
		w := lo >> 6
		var rec, fld, ctl uint64
		for i := lo; i < hi; {
			if skip != nil {
				if sc := skip[s]; sc != nil {
					i = sc.Next(p.input, i, hi)
					if i >= hi {
						break
					}
				}
			}
			var e dfa.Emission
			if fused {
				s, e = m.Step(s, p.input[i])
			} else {
				g := m.Group(p.input[i])
				e = m.Emission(s, g)
				s = m.NextByGroup(s, g)
			}
			if e != dfa.EmitData {
				if i>>6 != w {
					if ctl != 0 {
						bms.storeChunkWords(w, lo, hi, rec, fld, ctl)
					}
					w, rec, fld, ctl = i>>6, 0, 0, 0
				}
				bit := uint64(1) << (i & 63)
				ctl |= bit
				switch {
				case e.IsRecordDelim():
					rec |= bit
					recs++
					if !cm.sawRec {
						cm.sawRec = true
						cm.relFirst = relCol
					} else {
						cm.mm.Observe(relCol + 1)
					}
					relCol = 0
				case e.IsFieldDelim():
					fld |= bit
					relCol++
				}
			}
			i++
		}
		if ctl != 0 {
			bms.storeChunkWords(w, lo, hi, rec, fld, ctl)
		}
		kind := offsets.Rel
		if cm.sawRec {
			kind = offsets.Abs
		}
		p.recBase[c] = recs
		p.colBase[c] = offsets.ColumnOffset{Kind: kind, Value: relCol}
		p.meta[c] = cm
	})
}

// storeChunkWords writes backing word w of all three bitmaps for the
// chunk covering symbols [lo, hi).
func (b *bitmaps) storeChunkWords(w, lo, hi int, rec, fld, ctl uint64) {
	b.record.StoreChunkWord(w, lo, hi, rec)
	b.field.StoreChunkWord(w, lo, hi, fld)
	b.control.StoreChunkWord(w, lo, hi, ctl)
}
