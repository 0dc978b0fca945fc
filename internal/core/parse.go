package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/bitmap"
	"repro/internal/columnar"
	"repro/internal/css"
	"repro/internal/device"
	"repro/internal/dfa"
	"repro/internal/offsets"
	"repro/internal/statevec"
)

// Parse runs the full ParPaRaw pipeline over input and returns the
// columnar result. It is the one-shot convenience form of the
// compile/execute split in plan.go: the options are compiled into a
// Plan and executed once. Callers that parse repeatedly with one
// configuration should Compile once and Execute per input (the public
// Engine does exactly that). The kernel stages and their device-buffer
// needs are defined in kernels.go; all transient buffers come from the
// run's arena (Options.Arena), so a caller that reuses one arena across
// runs — as the streaming pipeline does — parses inside a fixed device
// footprint.
func Parse(input []byte, opts Options) (*Result, error) {
	plan, err := Compile(opts)
	if err != nil {
		return nil, err
	}
	return plan.Execute(input, plan.BaseExec(opts.Arena))
}

// phaseTimes returns a run's per-phase device time from its private
// timer: every core phase, zero when it did not run, plus the optional
// phases (e.g. "transcode") that did.
func phaseTimes(t *device.EventTimer) map[string]time.Duration {
	out := t.Snapshot()
	for _, p := range PhaseNames {
		if _, ok := out[p]; !ok {
			out[p] = 0
		}
	}
	return out
}

// pipeline carries the intermediate state of one parse run between the
// kernel stages of kernels.go.
type pipeline struct {
	Options
	input       []byte
	headerNames []string
	stats       Stats

	// Per-execution failure-model parameters (Exec): cancellation
	// context, partition identity for typed errors, and the bad-record
	// divert channel with its offset base. onRemainder publishes the
	// carry-over boundary (Exec.OnRemainder; nil on transcoded input).
	ctx         context.Context
	partition   int
	baseOffset  int64
	onBadRecord func(BadRecord)
	onRemainder func(int)

	chunks     int
	words      []statevec.Word // parseVectors → scanStates
	guess      []uint8         // parseVectors → emitBitmaps; nil when no guess was taken
	startState []uint8
	endState   uint8
	trailing   bool
	remainder  int

	bitmaps *dfa.Bitmaps
	meta    []chunkMeta

	// Per-chunk record counts and rel/abs column offsets as emitBitmaps
	// writes them; offsetScans scans both in place into every chunk's
	// first record index and starting column.
	recBase  []int64
	colBase  []offsets.ColumnOffset
	colTotal offsets.ColumnOffset

	numRecords    int64 // records including skipped ones
	numOutRecords int64
	numColumns    int // columns before selection
	selected      []int
	colMap        []uint32 // input column -> output column or sentinel
	sentinel      uint32

	// filterRows → tagSymbols/partitionScatter/convertColumns (Where).
	pushdown   bool    // prune failing rows before the partition/convert stages
	postFilter bool    // prune failing rows from the materialised table instead
	dropped    []bool  // per input record: failed the Where conjunction
	dropRank   []int64 // exclusive prefix count of dropped records (pushdown only)
	keep       []bool  // per output record: kept by the post filter (postFilter only)
	// postSkipped sums the bytes the move pass moved for the dropped
	// rows, over the columns the convert workers finish (postFilter only).
	postSkipped atomic.Int64

	// tagSymbols → partitionScatter (tag.go). counts and tileRows serve
	// only the mark modes' tag-scatter.
	tileChunks int     // chunks per tile
	tiles      int     // tiles covering the input
	counts     []int64 // per-(column, tile) kept symbols, column-major
	tileRows   []int64 // per-tile counters, then move cursors, tile-major
	rowStride  int     // tileRows elements per tile
	rejected   []bool

	// partitionScatter → convertColumns. RecordTagged: every kept
	// field's input start and data length, in blocks of 1<<fieldShift
	// records per column (fieldEntry), and per column whether a field
	// spans several data runs. The mark modes: the CSSs and, for
	// VectorDelimited, the delimiter bitmap.
	fieldStarts []int64
	fieldLens   []uint32
	fieldShift  uint
	multiRun    []uint32
	hist        []int64
	colStart    []int64
	sortedSyms  []byte
	sortedAux   *bitmap.Bitmap

	table *columnar.Table // the run's output; set by a finishing stage
}

func (p *pipeline) chunkBounds(c int) (lo, hi int) {
	lo = c * p.ChunkSize
	hi = lo + p.ChunkSize
	if hi > len(p.input) {
		hi = len(p.input)
	}
	return lo, hi
}

// resolveColumns determines the input's column count and the observed
// min/max (§4.3): per-chunk relative min/max resolved with the column
// offsets, plus the trailing record.
func (p *pipeline) resolveColumns() error {
	var mm offsets.MinMax
	for c := range p.meta {
		cm := &p.meta[c]
		if cm.sawRec {
			mm.Observe(p.colBase[c].Value + cm.relFirst + 1)
		}
		mm.Merge(cm.mm)
	}
	if p.trailing {
		mm.Observe(p.colTotal.Value + 1)
	}
	if mm.Valid {
		p.stats.MinColumns, p.stats.MaxColumns = mm.Min, mm.Max
	}
	switch {
	case p.ExpectedColumns > 0:
		p.numColumns = p.ExpectedColumns
	case p.Schema != nil:
		p.numColumns = p.Schema.NumColumns()
	default:
		p.numColumns = mm.Max
	}
	if p.Mode != css.RecordTagged && mm.Valid && (mm.Min != mm.Max || mm.Max != p.numColumns) {
		return fmt.Errorf("core: %v mode requires a constant column count; observed %d..%d, expected %d (use RecordTagged for ragged inputs)",
			p.Mode, mm.Min, mm.Max, p.numColumns)
	}
	return nil
}

// resolveSelection validates SelectColumns and builds the input-column →
// output-column map, with the sentinel key for irrelevant symbols.
func (p *pipeline) resolveSelection() error {
	if p.SelectColumns == nil {
		p.selected = device.Alloc[int](p.Arena, p.numColumns)
		for i := range p.selected {
			p.selected[i] = i
		}
	} else {
		p.selected = p.SelectColumns
	}
	p.sentinel = uint32(len(p.selected))
	p.colMap = device.Alloc[uint32](p.Arena, p.numColumns)
	for i := range p.colMap {
		p.colMap[i] = p.sentinel
	}
	if p.numRecords == 0 && p.Schema == nil && p.ExpectedColumns == 0 {
		// No record fixed the inferred column count, so no selection is
		// out of range: the run returns the empty table of the selected
		// width.
		return nil
	}
	for out, orig := range p.selected {
		if orig < 0 || orig >= p.numColumns {
			return fmt.Errorf("core: selected column %d outside input's %d columns", orig, p.numColumns)
		}
		if p.colMap[orig] != p.sentinel {
			return fmt.Errorf("core: column %d selected twice", orig)
		}
		p.colMap[orig] = uint32(out)
	}
	for i, s := range p.SkipRecords {
		if i > 0 && p.SkipRecords[i-1] >= s {
			return fmt.Errorf("core: SkipRecords must be strictly ascending")
		}
	}
	return nil
}

// alignIndex reconciles a mark index's field count with the output
// record count. Inline/vector CSSs lose the final empty field when the
// input's trailing record has no closing delimiter; that one field is
// restored.
func (p *pipeline) alignIndex(ix *css.Index, out int) error {
	want := int(p.numOutRecords)
	got := ix.NumFields()
	switch {
	case got == want:
		return nil
	case got == want-1 && p.trailing:
		ix.Starts = append(ix.Starts, int64(len(ix.Data)))
		ix.Lens = append(ix.Lens, 0)
		return nil
	default:
		return fmt.Errorf("core: column %d: %d fields for %d records in %v mode (inconsistent input; use RecordTagged)",
			out, got, want, p.Mode)
	}
}

func (p *pipeline) outputFields(names []string) []columnar.Field {
	fields := make([]columnar.Field, len(p.selected))
	for out, orig := range p.selected {
		f := columnar.Field{Name: fmt.Sprintf("col%d", orig), Type: columnar.String}
		if p.Schema != nil && orig < p.Schema.NumColumns() {
			f = p.Schema.Fields[orig]
		} else if orig < len(names) && names[orig] != "" {
			f.Name = names[orig]
		}
		fields[out] = f
	}
	return fields
}

// emptyTable is the output of a run that finishes before the partition
// scatter because no record or no column is kept, so every byte of its
// complete records counts as skipped.
func (p *pipeline) emptyTable() (*columnar.Table, error) {
	p.stats.BytesSkipped = int64(len(p.input) - p.remainder)
	fields := p.outputFields(p.headerNames)
	cols := make([]*columnar.Column, len(fields))
	for i, f := range fields {
		cols[i] = columnar.NewBuilder(f, int(p.numOutRecords)).Finish()
	}
	return columnar.NewTable(columnar.NewSchema(fields...), cols, nil)
}

// countBelow returns the number of sorted values strictly below limit.
func countBelow(sorted []int64, limit int64) int {
	n := 0
	for _, v := range sorted {
		if v < limit {
			n++
		}
	}
	return n
}

func anyTrue(b []bool) bool {
	for _, v := range b {
		if v {
			return true
		}
	}
	return false
}
