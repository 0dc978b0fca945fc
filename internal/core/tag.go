package core

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"

	"repro/internal/bitmap"
	"repro/internal/css"
	"repro/internal/device"
	"repro/internal/dfa"
	"repro/internal/offsets"
	"repro/internal/scan"
	"repro/parparawerr"
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
// change, so the host pipeline walks the control bitmap from structural
// byte to structural byte, per tile of whole chunks, instead of tagging
// symbols.
//
// RecordTagged mode moves nothing. One index walk (indexFields, timed
// "partition") writes every kept field's input start and data length,
// once, at the delimiter that ends the field, and the tag phase does no
// work. The CSS index views those arrays, so the convert step reads
// fields where they lie in the input; only a column holding a field of
// several data runs gets a CSS of its own (css.Gather). The rules:
//
//   - a field delimiter ends field col;
//   - a record delimiter ends field col and every kept column a short
//     (ragged) record does not reach, each as an empty field;
//   - the trailing record of TrailingRecord mode has no closing
//     delimiter, so the last tile ends its open field, and the columns
//     it does not reach, at the end of input;
//   - skipped, pushdown-dropped and remainder records write nothing.
//
// A field that began in an earlier tile is looked back for only by the
// tile holding its closing delimiter (fieldHead): a tile inside a long
// field does no work for it.
//
// InlineTerminated and VectorDelimited keep the paper's Figure 6 CSSs,
// built by a two-pass tag-scatter:
//
//	count  (tagSymbols, timed "tag")  every tile adds each kept data
//	       run's length, and each kept delimiter, to a per-(tile, column)
//	       count; RejectInconsistent bits are set here
//	scan   (partitionScatter, timed "partition")  one exclusive scan over
//	       the counts in column-major order gives every tile its cursor
//	       into every column's CSS, plus hist, colStart and the kept-symbol
//	       count
//	move   (partitionScatter, timed "partition")  every tile walks its
//	       bytes again and copies each kept data run straight to its
//	       column cursor, with the mode's delimiter payload (the inline
//	       terminator, or the delimiter and its aux bit) alongside
//
// No per-symbol buffer exists between the passes. Within a column the
// tiles' cursors are ordered by tile and each tile writes in input
// order, so the result equals the paper's stable partition of the
// per-symbol tags (§3.3); fused_test.go holds that reference as the
// oracle, for the index walk too.

// tagSymbols sizes the tiles and allocates the reject vector. In
// RecordTagged mode it only allocates the per-column flags the index
// walk sets for fields of several data runs: the walk checks the column
// counts too, and the tag phase reads 0. For the mark modes it is the
// count pass of the tag-scatter: it fills p.counts in column-major
// layout counts[key*tiles+tile] and flags records whose column count
// deviates from the expected count (when RejectInconsistent).
func (p *pipeline) tagSymbols() error {
	keys := int(p.sentinel)
	p.tileChunks = max(1, tileBytes/p.ChunkSize)
	p.tiles = (p.chunks + p.tileChunks - 1) / p.tileChunks
	// The reject vector escapes into the output table, so it must come
	// from the Go heap, not the recycled device arena.
	if p.RejectInconsistent || p.RejectMalformed {
		p.rejected = make([]bool, p.numOutRecords)
	}
	if p.Mode == css.RecordTagged {
		p.multiRun = device.Alloc[uint32](p.Arena, keys)
		return nil
	}
	p.counts = device.Alloc[int64](p.Arena, keys*p.tiles)
	// A tile counts into (and later moves from) its own row of tileRows:
	// walking the column-major counts directly would stride by the tile
	// count — a power of two for power-of-two inputs, so every column's
	// counter falls into one cache set — and would share cache lines
	// with the neighbouring tiles another worker is walking. Rows are
	// padded to whole 64-byte lines. A VectorDelimited tile has two rows
	// more, for the bounds of its regions of sortedAux (walkTile).
	rows := 1
	if p.Mode == css.VectorDelimited {
		rows = 3
	}
	p.rowStride = rows * ((keys + 7) &^ 7)
	p.tileRows = device.Alloc[int64](p.Arena, p.rowStride*p.tiles)
	bs := p.Device.Config().BlockSize
	p.Device.LaunchBlocks("tag", p.tiles*bs, func(t, _, _ int) {
		p.walkTile(t, false)
	})
	p.checkTrailingColumns()
	return nil
}

// checkTrailingColumns checks the trailing record's column count, which
// no closing delimiter lets a walk check, against the final
// column-offset state (RejectInconsistent). A skipped or
// pushdown-dropped trailing record is absent from the output and checks
// nothing.
func (p *pipeline) checkTrailingColumns() {
	if !p.RejectInconsistent || !p.trailing {
		return
	}
	skip := p.SkipRecords
	lastSkipped := len(skip) > 0 && skip[len(skip)-1] == p.numRecords-1
	lastDropped := p.pushdown && p.dropped[p.numRecords-1]
	if !lastSkipped && !lastDropped && p.colTotal.Value+1 != p.numColumns {
		p.rejected[p.numOutRecords-1] = true
	}
}

// partitionScatter is the partition phase (§3.3). In RecordTagged mode
// it is the index walk; in the mark modes it is the scan and move passes
// of the tag-scatter: the scanned counts place every kept column's
// symbols cohesively in sortedSyms, and the move pass fills it, together
// with sortedAux (VectorDelimited).
func (p *pipeline) partitionScatter() error {
	if p.Mode == css.RecordTagged {
		return p.indexFields()
	}
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

	// The move pass writes every byte of sortedSyms exactly once, so it
	// skips the recycled-memory zeroing (the memclr was ~7% of a
	// steady-state taxi parse). The aux bitmap starts zeroed, and the
	// move pass sets only the delimiters' bits.
	p.sortedSyms = device.AllocDirty[byte](p.Arena, kept)
	if p.Mode == css.VectorDelimited {
		p.sortedAux = bitmap.FromWords(device.Alloc[uint64](p.Arena, bitmap.WordsFor(kept)), kept)
	}
	bs := d.Config().BlockSize
	d.LaunchBlocks("partition", p.tiles*bs, func(t, _, _ int) {
		p.walkTile(t, true)
	})
	return nil
}

// walkTile is one tile of the count pass (move false) or the move pass
// (move true) of the mark modes. It walks the control bitmap from
// structural byte to structural byte: every non-data symbol carries the
// control bit, so the clear runs between set bits are exactly the data
// runs.
func (p *pipeline) walkTile(t int, move bool) {
	c := t * p.tileChunks
	lo := c * p.ChunkSize
	hi := min(lo+p.tileChunks*p.ChunkSize, len(p.input))
	sentinel := p.sentinel
	keys, tiles := int(sentinel), p.tiles
	rows := p.tileRows[t*p.rowStride : (t+1)*p.rowStride]
	row := rows[:keys]
	syms, aux := p.sortedSyms, p.sortedAux
	// auxLo and auxHi bound the tile's region of each column's CSS
	// (VectorDelimited move pass): the tile owns the column's positions
	// from its cursor to the next tile's, and the scanned counts are
	// column-major, so the entry after the last tile's is the next
	// column's start. It shares with a neighbour only the aux words its
	// regions' ends fall in.
	var auxLo, auxHi []int64
	if move {
		for k := range row {
			row[k] = p.counts[k*tiles+t]
		}
		if aux != nil {
			width := len(rows) / 3
			auxLo, auxHi = rows[width:width+keys], rows[2*width:2*width+keys]
			for k := range row {
				auxLo[k], auxHi[k] = row[k], int64(aux.Len())
				if at := k*tiles + t + 1; at < len(p.counts) {
					auxHi[k] = p.counts[at]
				}
			}
		}
	}
	inline := p.Mode == css.InlineTerminated
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
					row[key] = pos + int64(next-i)
					copy(syms[pos:row[key]], p.input[i:next])
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
			if key != sentinel {
				// The delimiter stays in the CSS: as the terminator, or
				// as itself with its aux bit set.
				pos := row[key]
				row[key] = pos + 1
				switch {
				case !move:
				case inline:
					syms[pos] = p.Terminator
				default:
					syms[pos] = p.input[i]
					aux.SetOwned(int(pos), int(auxLo[key]), int(auxHi[key]))
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
	}
}

// indexFields is the RecordTagged partition phase: one launch over the
// tiles writes every kept field's input start and data length, and the
// kept data bytes give BytesSkipped. The entries skip the
// recycled-memory zeroing, since each is written exactly once. They lie
// in blocks of 1<<fieldShift records per kept column, column after
// column (see indexShift), so a tile's stores fall into one window of
// the arrays, not into one stream per column.
func (p *pipeline) indexFields() error {
	keys := int64(p.sentinel)
	p.fieldShift = indexShift(int(keys), p.numOutRecords)
	block := int64(1) << p.fieldShift
	size := int((p.numOutRecords + block - 1) / block * block * keys)
	p.fieldStarts = device.AllocDirty[int64](p.Arena, size)
	p.fieldLens = device.AllocDirty[uint32](p.Arena, size)
	var kept, tooLong atomic.Int64
	bs := p.Device.Config().BlockSize
	p.Device.LaunchBlocks("partition", p.tiles*bs, func(t, _, _ int) {
		k, long := p.indexTile(t)
		kept.Add(k)
		if long > 0 {
			tooLong.Store(long)
		}
	})
	if l := tooLong.Load(); l > 0 {
		return p.fieldTooLong(css.FieldTooLong(l))
	}
	p.checkTrailingColumns()
	p.stats.BytesSkipped = int64(len(p.input)-p.remainder) - kept.Load()
	return nil
}

// indexShift returns the log2 of the records per block of the
// RecordTagged index: blocks of about 16 Ki entries, 192 KiB across all
// kept columns, which the walk fills in input order from the cache, and
// of at most an eighth of the records, so that padding the last block
// adds at most an eighth to the index.
func indexShift(keys int, records int64) uint {
	b := min(max(16384/max(keys, 1), 64), 1024, int(max(records/8, 1)))
	return uint(bits.Len(uint(b)) - 1)
}

// fieldEntry is the position of column key's entry for output record
// outRec in fieldStarts and fieldLens.
func (p *pipeline) fieldEntry(key uint32, outRec int64) int64 {
	s := p.fieldShift
	return outRec>>s*int64(p.sentinel)<<s + int64(key)<<s + outRec&(1<<s-1)
}

// fieldTooLong types an index's field-limit error for the caller.
func (p *pipeline) fieldTooLong(err error) error {
	return &parparawerr.MalformedError{Partition: p.partition, Detail: err.Error()}
}

// indexTile is one tile of the index walk. It returns the data bytes of
// the kept fields it ends, and the length of a field too long to index
// (0 when there is none).
func (p *pipeline) indexTile(t int) (kept, tooLong int64) {
	c := t * p.tileChunks
	lo := c * p.ChunkSize
	hi := min(lo+p.tileChunks*p.ChunkSize, len(p.input))
	sentinel := p.sentinel
	starts, lens := p.fieldStarts, p.fieldLens
	checkCols := p.RejectInconsistent
	skip := p.SkipRecords
	var dropped []bool
	if p.pushdown {
		dropped = p.dropped
	}
	rec := p.recBase[c]
	col := p.colBase[c].Value
	skipPtr := sort.Search(len(skip), func(i int) bool { return skip[i] >= rec })
	var dropBefore int64
	if dropped != nil {
		dropBefore = p.dropRank[rec]
	}
	sc := newStructCursor(p.bitmaps, lo, hi)
	shift := p.fieldShift
	stride, mask := int64(sentinel)<<shift, int64(1)<<shift-1

	// The open field: fs is its first data byte, fe the end of its last
	// data run and fl its data length, all within this tile (fs = fe
	// while fl is 0). head is whether it began before the tile, with
	// that part not yet looked up. A field that began in the tile and
	// is one data run is written inline; writeField does the rest.
	fs, fe, fl := lo, lo, 0
	head := lo > 0
	for i := lo; i < hi; {
		inSkipList := skipPtr < len(skip) && skip[skipPtr] == rec
		recDropped := dropped != nil && rec < p.numRecords && dropped[rec]
		irrelevant := inSkipList || recDropped || rec >= p.numRecords
		outRec := rec - int64(skipPtr) - dropBefore
		// The record's entry in column 0's block (fieldEntry).
		recEntry := outRec>>shift*stride + outRec&mask
		for i < hi {
			next, bit := hi, uint64(0)
			if sc.pend != 0 || sc.advance() {
				bit = sc.pend & -sc.pend
				sc.pend ^= bit
				next = sc.cw<<6 + bits.TrailingZeros64(bit)
			}
			if next > i {
				// Data run [i, next).
				if fl == 0 {
					fs = i
				}
				fl += next - i
				fe = next
			}
			i = next
			if i >= hi {
				break
			}
			isRec := sc.rec&bit != 0
			if !isRec && sc.fld&bit == 0 {
				i++ // control symbol that delimits nothing
				continue
			}
			// Delimiter i ends field col.
			if key := p.mapColumn(col, irrelevant); key != sentinel {
				if !head && fe-fs == fl && int64(fl) <= math.MaxUint32 {
					e := recEntry + int64(key)<<shift
					starts[e], lens[e] = int64(fs), uint32(fl)
					kept += int64(fl)
				} else if l, ok := p.writeField(key, outRec, lo, fs, fe, fl, head); ok {
					kept += l
				} else {
					tooLong = l
				}
			}
			i++
			head, fs, fe, fl = false, i, i, 0
			if !isRec {
				col++
				continue
			}
			if checkCols && !irrelevant && col+1 != p.numColumns {
				p.rejected[outRec] = true
			}
			if !irrelevant && col+1 < len(p.colMap) {
				p.emptyFields(outRec, col+1, i)
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
	if p.trailing && t == p.tiles-1 {
		// rec is the trailing record; the end of input ends it.
		inSkipList := skipPtr < len(skip) && skip[skipPtr] == rec
		recDropped := dropped != nil && dropped[rec]
		if !inSkipList && !recDropped {
			outRec := rec - int64(skipPtr) - dropBefore
			if key := p.mapColumn(col, false); key != sentinel {
				if l, ok := p.writeField(key, outRec, lo, fs, fe, fl, head); ok {
					kept += l
				} else {
					tooLong = l
				}
			}
			p.emptyFields(outRec, col+1, hi)
		}
	}
	return kept, tooLong
}

// writeField writes a kept field as column key's entry for output record
// outRec and returns its data length, with false when the length does
// not fit an entry. In the tile starting at lo, the field's data is fl
// bytes from fs, its last data run ending at fe (fs = fe when fl is 0),
// and head is whether it began before lo. A field whose data bytes are
// not contiguous marks its column for a CSS of its own.
func (p *pipeline) writeField(key uint32, outRec int64, lo, fs, fe, fl int, head bool) (int64, bool) {
	if head {
		if hs, he, hl := p.fieldHead(lo); hl > 0 {
			if fl == 0 {
				fe = he
			}
			fs, fl = hs, fl+hl
		}
	}
	if fe-fs != fl && atomic.LoadUint32(&p.multiRun[key]) == 0 {
		atomic.StoreUint32(&p.multiRun[key], 1)
	}
	if int64(fl) > math.MaxUint32 {
		return int64(fl), false
	}
	e := p.fieldEntry(key, outRec)
	p.fieldStarts[e], p.fieldLens[e] = int64(fs), uint32(fl)
	return int64(fl), true
}

// emptyFields writes an empty field, at input offset at, for output
// record outRec in every kept column from input column from on: the
// columns a short record's delimiter, or the end of input, leaves
// unreached.
func (p *pipeline) emptyFields(outRec int64, from, at int) {
	for c := max(from, 0); c < len(p.colMap); c++ {
		if k := p.colMap[c]; k != p.sentinel {
			e := p.fieldEntry(k, outRec)
			p.fieldStarts[e], p.fieldLens[e] = int64(at), 0
		}
	}
}

// fieldHead looks back from lo, a tile start, for the part of the field
// open at lo that lies before it: the field began after the last field
// or record delimiter before lo. It returns that part's first data
// byte, the end of its last data run and its data length (0 when the
// part holds no data).
func (p *pipeline) fieldHead(lo int) (s, e, l int) {
	bm := p.bitmaps
	from := 0
	top := (lo - 1) >> 6
	for w := top; w >= 0; w-- {
		x := bm.Record.Word(w) | bm.Field.Word(w)
		if w == top {
			x &= ^uint64(0) >> uint(63-(lo-1)&63)
		}
		if x != 0 {
			from = w<<6 + 64 - bits.LeadingZeros64(x)
			break
		}
	}
	if l = lo - from - bm.Control.PopCountRange(from, lo); l == 0 {
		return 0, 0, 0
	}
	s, _ = bm.Control.FirstClearInRange(from, lo)
	e, _ = bm.Control.LastClearInRange(from, lo)
	return s, e + 1, l
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
