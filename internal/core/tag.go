package core

import (
	"math/bits"
	"sort"

	"repro/internal/css"
	"repro/internal/device"
	"repro/internal/dfa"
	"repro/internal/offsets"
	"repro/internal/scan"
)

// chunkMeta is the per-chunk column-count metadata collected by the
// emission pass. The chunk's record count and rel/abs column offset go
// straight into the offset scans' arrays (pipeline.recBase, colBase).
type chunkMeta struct {
	relFirst int            // field delimiters before the chunk's first record delimiter
	sawRec   bool           // chunk contains at least one record delimiter
	mm       offsets.MinMax // column counts of records fully inside the chunk
}

// tileBytes is the fused tag-scatter's target tile size. A tile is the
// run of whole chunks covering about this many bytes: it must start on a
// chunk boundary, because recBase and colBase give the record and column
// context only at chunk starts.
const tileBytes = 4096

// The paper's tag phase (§3.2 bottom of Figure 4, §4.1) writes a column
// tag and a record tag for every input symbol, and its partition phase
// (§3.3) reads them back to move each symbol into its column's
// concatenated symbol string (CSS). Within one data run — a clear run of
// the control bitmap — the record, column, skip and drop context cannot
// change, so the host pipeline fuses the two phases into a two-pass
// tag-scatter over tiles instead:
//
//	count  (tagSymbols, timed "tag")  every tile walks structural byte to
//	       structural byte and adds each kept data run's length to a
//	       per-(tile, column) count; RejectInconsistent bits are set here
//	scan   (partitionScatter, timed "partition")  one exclusive scan over
//	       the counts in column-major order gives every tile its cursor
//	       into every column's CSS, plus hist, colStart and the kept-symbol
//	       count
//	move   (partitionScatter, timed "partition")  every tile walks its
//	       bytes again and copies each kept data run straight to its
//	       column cursor, with the mode's payload (field end offsets,
//	       inline terminators, or the delimiter vector) written alongside
//
// No per-symbol buffer exists between the passes. Within a column the
// tiles' cursors are ordered by tile and each tile writes in input
// order, so the result equals the paper's stable partition of the
// per-symbol tags (§3.3), and recOffs the exclusive prefix sum of
// their run-length encoding; fused_test.go holds that reference as the
// oracle.
//
// recOffs is the RecordTagged CSS index itself: column k's entries
// k*(n+1) .. k*(n+1)+n, for n output records, are its fields'
// boundaries, a leading 0 and then each field's end. A field's end is
// its column cursor, relative to the column's start, at the delimiter
// that ends it, so the move pass writes every end exactly once, with a
// plain store, by the one tile that holds that delimiter:
//
//   - a field delimiter ends field col;
//   - a record delimiter ends field col and every kept column a short
//     (ragged) record does not reach, each at its cursor, which makes
//     an empty field;
//   - the trailing record of TrailingRecord mode has no closing
//     delimiter, so the last tile ends its open field and the columns
//     it does not reach at the end of input;
//   - skipped, pushdown-dropped and remainder records write nothing.

// tagSymbols is the count pass of the fused tag-scatter. It sizes the
// tiles, fills p.counts in column-major layout counts[key*tiles+tile],
// and allocates the reject vector, flagging records whose column count
// deviates from the expected count (when RejectInconsistent).
func (p *pipeline) tagSymbols() error {
	keys := int(p.sentinel)
	p.tileChunks = max(1, tileBytes/p.ChunkSize)
	p.tiles = (p.chunks + p.tileChunks - 1) / p.tileChunks
	p.counts = device.Alloc[int64](p.Arena, keys*p.tiles)
	// A tile counts into (and later moves from) its own row of tileRows:
	// walking the column-major counts directly would stride by the tile
	// count — a power of two for power-of-two inputs, so every column's
	// counter falls into one cache set — and would share cache lines
	// with the neighbouring tiles another worker is walking. Rows are
	// padded to whole 64-byte lines.
	p.rowStride = (keys + 7) &^ 7
	p.tileRows = device.Alloc[int64](p.Arena, p.rowStride*p.tiles)

	// The reject vector escapes into the output table, so it must come
	// from the Go heap, not the recycled device arena.
	if p.RejectInconsistent || p.RejectMalformed {
		p.rejected = make([]bool, p.numOutRecords)
	}
	bs := p.Device.Config().BlockSize
	p.Device.LaunchBlocks("tag", p.tiles*bs, func(t, _, _ int) {
		p.walkTile(t, false)
	})

	// The trailing record has no closing delimiter, so its column count
	// is checked against the final column-offset state here. A skipped or
	// pushdown-dropped trailing record is absent from the output and
	// checks nothing.
	if p.RejectInconsistent && p.trailing {
		skip := p.SkipRecords
		lastSkipped := len(skip) > 0 && skip[len(skip)-1] == p.numRecords-1
		lastDropped := p.pushdown && p.dropped[p.numRecords-1]
		if !lastSkipped && !lastDropped && p.colTotal.Value+1 != p.numColumns {
			p.rejected[p.numOutRecords-1] = true
		}
	}
	return nil
}

// partitionScatter is the scan and move passes of the fused tag-scatter
// (§3.3): the scanned counts place every kept column's symbols
// cohesively in sortedSyms, and the move pass fills it, together with
// recOffs (RecordTagged) or sortedAux (VectorDelimited).
func (p *pipeline) partitionScatter() error {
	d, n := p.Device, len(p.input)
	// The scan turns the counts into the move pass's cursors in place.
	kept := int(scan.ExclusiveArena(d, p.Arena, "partition", scan.Sum[int64](), p.counts, p.counts))
	// hist and colStart keep the sentinel key's entry (the symbols never
	// moved) so the CSS boundaries read exactly like a stable partition
	// of every symbol by column tag.
	keys := int(p.sentinel)
	p.hist = device.Alloc[int64](p.Arena, keys+1)
	p.colStart = device.Alloc[int64](p.Arena, keys+1)
	for k := 0; k < keys; k++ {
		end := int64(kept)
		if k+1 < keys {
			end = p.counts[(k+1)*p.tiles]
		}
		p.colStart[k] = p.counts[k*p.tiles]
		p.hist[k] = end - p.colStart[k]
	}
	p.colStart[keys] = int64(kept)
	p.hist[keys] = int64(n - kept)
	// Sentinel symbols — structural bytes, unselected columns, rows
	// pruned by SkipRecords or a pushed-down Where — are never moved: the
	// skipped device traffic is the projection/predicate pushdown's
	// saving. The carry-over remainder is not counted: the partition that
	// completes its record counts those bytes.
	p.stats.BytesSkipped = int64(n - p.remainder - kept)

	// The move pass writes every position of every sorted buffer exactly
	// once, so they skip the recycled-memory zeroing (the memclr was ~7%
	// of a steady-state taxi parse).
	p.sortedSyms = device.AllocDirty[byte](p.Arena, kept)
	switch p.Mode {
	case css.RecordTagged:
		// The move pass writes every field's end; only each column's
		// leading offset is set here.
		stride := int(p.numOutRecords) + 1
		p.recOffs = device.AllocDirty[int64](p.Arena, keys*stride)
		for k := 0; k < keys; k++ {
			p.recOffs[k*stride] = 0
		}
	case css.VectorDelimited:
		p.sortedAux = device.AllocDirty[bool](p.Arena, kept)
	}
	bs := d.Config().BlockSize
	d.LaunchBlocks("partition", p.tiles*bs, func(t, _, _ int) {
		p.walkTile(t, true)
	})
	return nil
}

// walkTile is one tile of the count pass (move false) or the move pass
// (move true). It walks the control bitmap from structural byte to
// structural byte: every non-data symbol carries the control bit, so the
// clear runs between set bits are exactly the data runs.
func (p *pipeline) walkTile(t int, move bool) {
	c := t * p.tileChunks
	lo := c * p.ChunkSize
	hi := min(lo+p.tileChunks*p.ChunkSize, len(p.input))
	sentinel := p.sentinel
	keys, tiles := int(sentinel), p.tiles
	row := p.tileRows[t*p.rowStride : t*p.rowStride+keys]
	if move {
		for k := range row {
			row[k] = p.counts[k*tiles+t]
		}
	}
	syms, aux := p.sortedSyms, p.sortedAux
	// offs is recOffs in the move pass of RecordTagged mode, else nil.
	var offs []int64
	if move {
		offs = p.recOffs
	}
	colStart, stride := p.colStart, p.numOutRecords+1
	mode := p.Mode
	// Delimiters stay in the inline (as the terminator) and vector (as
	// themselves, marked in aux) CSSs; the per-record offsets make them
	// redundant in RecordTagged mode (§4.1, Figure 6), whose move pass
	// ends a field at each instead. atDelims is whether the pass does
	// anything at a kept column's delimiter: one flag, so that the
	// RecordTagged count pass, which shares this walk, tests one value
	// per delimiter.
	atDelims := mode != css.RecordTagged || move
	checkCols := !move && p.RejectInconsistent
	skip := p.SkipRecords
	// Under predicate pushdown, records dropped by Where are irrelevant
	// like skipped records and the kept records renumber densely via the
	// drop-rank prefix. On the post-hoc path dropped stays nil: rows prune
	// from the table instead.
	var dropped []bool
	if p.pushdown {
		dropped = p.dropped
	}

	rec := p.recBase[c]
	col := p.colBase[c].Value
	// skipPtr is the lower bound of rec in the skip list; rec - skipPtr
	// - dropBefore is the output record index.
	skipPtr := sort.Search(len(skip), func(i int) bool { return skip[i] >= rec })
	var dropBefore int64
	if dropped != nil {
		dropBefore = p.dropRank[rec]
	}
	sc := newStructCursor(p.bitmaps, lo, hi)

	for i := lo; i < hi; {
		// One record (or the part of it inside this tile) per iteration.
		// Symbols beyond the last counted record (the remainder in
		// TrailingRemainder mode) are irrelevant, like skipped records.
		inSkipList := skipPtr < len(skip) && skip[skipPtr] == rec
		recDropped := dropped != nil && rec < p.numRecords && dropped[rec]
		irrelevant := inSkipList || recDropped || rec >= p.numRecords
		outRec := rec - int64(skipPtr) - dropBefore
		for i < hi {
			key := p.mapColumn(col, irrelevant)
			// next is the next structural byte, bit its mask in sc's
			// current word.
			next, bit := hi, uint64(0)
			if sc.pend != 0 || sc.advance() {
				bit = sc.pend & -sc.pend
				sc.pend ^= bit
				next = sc.cw<<6 + bits.TrailingZeros64(bit)
			}
			if next > i && key != sentinel {
				// Data run [i, next) of a kept column.
				if !move {
					row[key] += int64(next - i)
				} else {
					pos := row[key]
					end := pos + int64(next-i)
					row[key] = end
					copy(syms[pos:end], p.input[i:next])
					if mode == css.VectorDelimited {
						clear(aux[pos:end])
					}
				}
			}
			i = next
			if i >= hi {
				break
			}

			// Structural byte i.
			isRec := sc.rec&bit != 0
			if !isRec && sc.fld&bit == 0 {
				i++ // control symbol that delimits nothing
				continue
			}
			if atDelims && key != sentinel {
				switch {
				case !move:
					row[key]++
				case offs != nil:
					// The delimiter ends field col.
					offs[int64(key)*stride+outRec+1] = row[key] - colStart[key]
				default:
					pos := row[key]
					row[key] = pos + 1
					if mode == css.InlineTerminated {
						syms[pos] = p.Terminator
					} else {
						syms[pos] = p.input[i]
						aux[pos] = true
					}
				}
			}
			i++
			if !isRec {
				col++
				continue
			}
			if checkCols && !irrelevant && col+1 != p.numColumns {
				p.rejected[outRec] = true
			}
			if offs != nil && !irrelevant && col+1 < len(p.colMap) {
				p.endFields(row, outRec, col+1)
			}
			rec++
			col = 0
			if inSkipList {
				skipPtr++
			}
			if recDropped {
				dropBefore++
			}
			break
		}
	}
	if !move {
		for k, v := range row {
			p.counts[k*tiles+t] = v
		}
		return
	}
	if offs != nil && p.trailing && t == tiles-1 {
		// rec is the trailing record; the end of input ends it.
		inSkipList := skipPtr < len(skip) && skip[skipPtr] == rec
		recDropped := dropped != nil && dropped[rec]
		if !inSkipList && !recDropped {
			p.endFields(row, rec-int64(skipPtr)-dropBefore, col)
		}
	}
}

// endFields ends output record outRec's field in every kept column from
// input column from on, each at the column cursor in row: the fields a
// record delimiter or the end of input leaves open or unreached.
func (p *pipeline) endFields(row []int64, outRec int64, from int) {
	stride := p.numOutRecords + 1
	for c := max(from, 0); c < len(p.colMap); c++ {
		if k := p.colMap[c]; k != p.sentinel {
			p.recOffs[int64(k)*stride+outRec+1] = row[k] - p.colStart[k]
		}
	}
}

// structCursor holds the structural-byte walk's position: the control
// bitmap is consumed a word at a time, with the record and field words
// of the current word at hand to classify each set bit. The walk pops
// bits off pend inline and calls advance only when a word runs dry.
type structCursor struct {
	bm       *dfa.Bitmaps
	hi       int
	cw       int    // current word index
	pend     uint64 // unconsumed control bits of word cw below hi
	rec, fld uint64 // record and field bits of word cw
}

func newStructCursor(bm *dfa.Bitmaps, lo, hi int) structCursor {
	s := structCursor{bm: bm, hi: hi, cw: lo >> 6}
	if lo < hi {
		s.load()
		s.pend &^= 1<<uint(lo&63) - 1
	}
	return s
}

func (s *structCursor) load() {
	s.pend = s.bm.Control.Word(s.cw)
	if rem := s.hi - s.cw<<6; rem < 64 {
		s.pend &= 1<<uint(rem) - 1
	}
	s.rec = s.bm.Record.Word(s.cw)
	s.fld = s.bm.Field.Word(s.cw)
}

// advance loads the next word holding a control bit below hi, reporting
// false when there is none.
func (s *structCursor) advance() bool {
	for s.pend == 0 {
		s.cw++
		if s.cw<<6 >= s.hi {
			return false
		}
		s.load()
	}
	return true
}

// mapColumn maps an absolute input column to its output sort key,
// applying column selection, ragged-overflow clamping, and record
// irrelevance (skipped by SkipRecords or dropped by a pushed-down
// Where predicate).
func (p *pipeline) mapColumn(col int, irrelevant bool) uint32 {
	if irrelevant || col < 0 || col >= len(p.colMap) {
		return p.sentinel
	}
	return p.colMap[col]
}
