package core

// filter.go is the predicate-pushdown stage (§4.3 extended to row
// predicates): the Where conjunction is evaluated against every record's
// raw field bytes right after the offset scans, before tagging,
// partitioning, or conversion touch the record. With a fixed schema the
// result prunes failing rows out of the rest of the pipeline (their
// symbols tag as sentinel and are never moved or materialised); with an
// inferred schema — where types must still be derived from every row —
// or under the NoPushdown ablation toggle, the same dropped bitmap is
// applied to the materialised table instead (applyPostFilter), so the
// two paths produce byte-identical output by construction.
//
// The value a predicate sees is exactly what the convert stage would
// materialise for the field: the span between delimiters with control
// symbols (quotes, carriage returns, comment bytes) stripped, the
// column's DefaultValues entry substituted when the field is empty, and
// fields missing from ragged records treated as empty.

import (
	"sort"
	"sync/atomic"

	"repro/internal/columnar"
	"repro/internal/convert"
	"repro/internal/device"
	"repro/internal/scan"
)

// boundPred is a Where predicate with its column's default-value bytes
// resolved once, outside the per-record loop.
type boundPred struct {
	convert.Predicate
	def []byte
}

// filterRows evaluates Options.Where over every record and produces the
// dropped bitmap. On the pushdown path it also shrinks the output record
// count, builds the drop-rank prefix the tag kernel uses to renumber
// records, and finishes early when every record is dropped. Device time
// is charged to the optional "filter" phase (present in Stats.Phases
// only when predicates ran, like "transcode").
func (p *pipeline) filterRows() error {
	if len(p.Where) == 0 {
		return nil
	}
	p.pushdown = p.Schema != nil && !p.NoPushdown
	p.postFilter = !p.pushdown

	d := p.Device
	n := len(p.input)
	numRec := p.numRecords
	bm := p.bitmaps

	// recStarts[r] is the input offset of record r's first byte and
	// recStarts[r+1]-1 its terminating record delimiter (one past the
	// input for the unterminated trailing record), so record r's span is
	// input[recStarts[r] : recStarts[r+1]-1]. recStarts[0] = 0 comes from
	// the zeroing Alloc; every other entry is written by the chunk that
	// owns the preceding record delimiter.
	recStarts := device.Alloc[int64](p.Arena, int(numRec)+1)
	d.Launch("filter", p.chunks, func(c int) {
		lo, hi := p.chunkBounds(c)
		rec := p.recBase[c]
		for i := lo; i < hi; {
			s, ok := bm.Record.FirstSetInRange(i, hi)
			if !ok {
				break
			}
			rec++
			if rec <= numRec {
				recStarts[rec] = int64(s) + 1
			}
			i = s + 1
		}
	})
	if p.trailing {
		recStarts[numRec] = int64(n) + 1
	}

	// Predicates sorted by column let one left-to-right field walk per
	// record serve the whole conjunction.
	preds := make([]boundPred, len(p.Where))
	for i, pr := range p.Where {
		preds[i] = boundPred{Predicate: pr}
		if def, ok := p.DefaultValues[pr.Column]; ok {
			preds[i].def = []byte(def)
		}
	}
	sort.SliceStable(preds, func(i, j int) bool { return preds[i].Column < preds[j].Column })

	p.dropped = device.Alloc[bool](p.Arena, int(numRec))
	skipList := p.SkipRecords
	var totalDropped atomic.Int64
	d.LaunchBlocks("filter", int(numRec), func(_, first, limit int) {
		var scratch []byte // slow-path gather buffer, reused across records
		skipPtr := sort.Search(len(skipList), func(i int) bool { return skipList[i] >= int64(first) })
		var blockDropped int64
		for r := int64(first); r < int64(limit); r++ {
			if skipPtr < len(skipList) && skipList[skipPtr] == r {
				// Skip-listed records are pruned by SkipRecords, never by
				// Where: they stay out of the dropped bitmap so the two
				// prunings account separately (RowsPruned vs SkipRecords).
				skipPtr++
				continue
			}
			start, end := int(recStarts[r]), int(recStarts[r+1]-1)
			col, fs := 0, start
			exhausted := false
			for pi := range preds {
				pr := &preds[pi]
				for !exhausted && col < pr.Column {
					dpos, ok := bm.Field.FirstSetInRange(fs, end)
					if !ok {
						exhausted = true
						break
					}
					fs = dpos + 1
					col++
				}
				var val []byte
				if col == pr.Column && !exhausted {
					fe := end
					if dpos, ok := bm.Field.FirstSetInRange(fs, end); ok {
						fe = dpos
					}
					val, scratch = p.fieldValue(fs, fe, scratch)
				}
				if len(val) == 0 {
					val = pr.def
				}
				if !pr.Eval(val) {
					p.dropped[r] = true
					blockDropped++
					break
				}
			}
		}
		totalDropped.Add(blockDropped)
	})

	droppedTotal := totalDropped.Load()
	p.stats.RowsPruned = droppedTotal
	if droppedTotal == 0 {
		// Nothing to prune on either path; fall through to the ordinary
		// pipeline without per-record drop checks in the tag kernel.
		p.dropped = nil
		p.pushdown, p.postFilter = false, false
		return nil
	}
	if !p.pushdown {
		return nil
	}

	// dropRank[r] is the number of dropped records with index < r: the
	// tag kernel subtracts it (plus the skip count) to renumber the kept
	// records densely. One exclusive prefix sum over the 0/1 drops.
	drops := device.Alloc[int64](p.Arena, int(numRec))
	d.LaunchBlocks("filter", int(numRec), func(_, first, limit int) {
		for r := first; r < limit; r++ {
			if p.dropped[r] {
				drops[r] = 1
			}
		}
	})
	p.dropRank = device.Alloc[int64](p.Arena, int(numRec)+1)
	p.dropRank[numRec] = scan.ExclusiveArena(d, p.Arena, "filter", scan.Sum[int64](), drops, p.dropRank[:numRec])

	p.numOutRecords -= droppedTotal
	p.stats.Records = p.numOutRecords
	if p.numOutRecords == 0 {
		table, err := p.emptyTable()
		if err != nil {
			return err
		}
		p.table = table
	}
	return nil
}

// fieldValue returns the field's value bytes: the data symbols of
// input[fs:fe), i.e. the span with control symbols removed — exactly the
// bytes the column's CSS would hold for this field. The fast path (no
// control bit in the span, the overwhelmingly common case) returns a
// subslice of the input; the slow path gathers the data bytes into
// scratch, which is returned for reuse.
func (p *pipeline) fieldValue(fs, fe int, scratch []byte) (val, buf []byte) {
	if fs >= fe {
		return nil, scratch
	}
	ctl := p.bitmaps.Control
	if ctl.PopCountRange(fs, fe) == 0 {
		return p.input[fs:fe], scratch
	}
	scratch = scratch[:0]
	for i := fs; i < fe; i++ {
		if !ctl.Get(i) {
			scratch = append(scratch, p.input[i])
		}
	}
	return scratch, scratch
}

// keptRows reindexes the dropped bitmap from input records to output
// records (skip-listed records are absent from the table already): the
// mask of the rows applyPostFilter keeps.
func (p *pipeline) keptRows() []bool {
	keep := make([]bool, p.numOutRecords)
	skip := p.SkipRecords
	skipPtr, out := 0, 0
	for r := int64(0); r < p.numRecords; r++ {
		if skipPtr < len(skip) && skip[skipPtr] == r {
			skipPtr++
			continue
		}
		keep[out] = !p.dropped[r]
		out++
	}
	return keep
}

// applyPostFilter prunes the Where-failing rows from the materialised
// table — the post-hoc half of the pushdown/post-hoc equivalence,
// taken when the schema is inferred (type inference must see every row)
// or under NoPushdown. The dropped rows' bytes were moved, but they
// count as skipped as under pushdown: convertColumn summed their spans
// in each kept column's CSS index.
func (p *pipeline) applyPostFilter(table *columnar.Table) (*columnar.Table, error) {
	filtered, err := columnar.FilterRows(table, p.keep)
	if err != nil {
		return nil, err
	}
	p.stats.Records = int64(filtered.NumRows())
	p.stats.BytesSkipped += p.postSkipped.Load()
	return filtered, nil
}
