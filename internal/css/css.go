// Package css implements the concatenated symbol string (CSS)
// representation of §3.3 and the three tagging modes of §4.1 (Figure 6).
//
// The paper moves every symbol into its column's CSS, so that GPU
// threads converting a column read coalesced memory. To convert field
// values, the algorithm then needs an *index*: where every field's
// symbol string starts and how long it is. How that index is derived
// depends on the tagging mode:
//
//   - RecordTagged: the paper gives every symbol a 4-byte record tag,
//     run-length encodes the sorted tags into per-record lengths and
//     scans the lengths into offsets. On a CPU the moved copy is pure
//     cost: a field whose value is one data run (a clear run of the
//     control bitmap) already lies contiguous in the input. So the
//     partition phase's index walk writes every kept field's input
//     start and data length, at the delimiter that ends the field, and
//     Tagged views those arrays: no launch, no allocation, and the
//     convert step reads fields straight from the input. Only a column
//     holding a field of several data runs (an escaped "", a weblog
//     escape) gets a CSS of its own, built by Gather. Robust: tolerates
//     records with varying column counts (a record without the column
//     has an empty field).
//   - InlineTerminated: field/record delimiters are replaced by a unique
//     terminator byte inside the CSS (like '\0' for C strings); the index
//     is the list of terminator positions. Requires the terminator byte
//     to never occur in field data.
//   - VectorDelimited: delimiters stay in the CSS, and an auxiliary bit
//     vector, one bit per CSS byte, marks them; the index is the list of
//     marked positions. No reserved byte needed.
//
// The mark-based indexes read every CSS byte (or aux word) twice, once
// to count the marks per tile and once to scatter their positions,
// while the RecordTagged index reads nothing and its mode moves only
// the columns it gathers: RecordTagged is the fastest mode here, the
// reverse of the paper's Figure 11. Parsing 4 MiB with a fixed schema
// on a 2-vCPU Xeon (GOMAXPROCS=2), convert takes 10.4 ms on taxi and
// 3.6 ms on yelp record-tagged (yelp's gathered text column included),
// against 31 and 4.4 ms inline and 22 and 3.4 ms vector-delimited, and
// the whole parse runs at 117 and 337 MB/s against 79 and 286 inline
// and 77 and 268 vector-delimited.
package css

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/bitmap"
	"repro/internal/device"
	"repro/internal/scan"
)

// Mode selects the tagging representation (§4.1).
type Mode int

const (
	// RecordTagged is the robust default: fields indexed by record.
	RecordTagged Mode = iota
	// InlineTerminated replaces delimiters with Terminator in the CSS.
	InlineTerminated
	// VectorDelimited keeps delimiters and marks them in an aux vector.
	VectorDelimited
)

func (m Mode) String() string {
	switch m {
	case RecordTagged:
		return "tagged"
	case InlineTerminated:
		return "inline"
	case VectorDelimited:
		return "delimited"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// DefaultTerminator is the ASCII unit separator (0x1F), one of the two
// candidates §4.1 recommends (with the record separator 0x1E).
const DefaultTerminator byte = 0x1F

// Column is one InlineTerminated or VectorDelimited column's CSS plus
// the metadata needed to index it.
type Column struct {
	Mode Mode
	// Data is the concatenated symbol string.
	Data []byte
	// Aux marks delimiter positions (VectorDelimited mode only): bit
	// AuxBase+i is set when Data[i] is a delimiter. The columns of one
	// parse share one bitmap, a bit per byte of their concatenated CSSs.
	Aux     *bitmap.Bitmap
	AuxBase int
	// Terminator is the in-band field terminator (InlineTerminated only).
	Terminator byte
}

// Index locates every field of one column: field k is Field(k), the
// bytes Data[Start(k) : Start(k)+Len(k)]. For RecordTagged columns
// field k is record k (an empty field has length 0) and Data is the
// input, or the column's gathered CSS; for the other two modes Data is
// the CSS and field k is the column's k-th field in record order.
//
// An index built here is contiguous: field k's start and length are
// Starts[k] and Lens[k]. Tagged views a partition's record-tagged
// index, which stores the entries in blocks: 1<<shift entries of one
// column, then those of the next column, so that the partition's walk
// writes one window of memory at a time instead of a stream per column.
type Index struct {
	Data   []byte
	Starts []int64
	Lens   []uint32
	// The block layout of a Tagged view: field k's entry is element
	// k>>shift*stride + k&(1<<shift-1); stride 0 means contiguous.
	n      int
	shift  uint
	stride int
}

// NumFields returns the number of indexed fields.
func (ix *Index) NumFields() int {
	if ix.stride == 0 {
		return len(ix.Starts)
	}
	return ix.n
}

func (ix *Index) entry(k int) int {
	if ix.stride == 0 {
		return k
	}
	return k>>ix.shift*ix.stride + k&(1<<ix.shift-1)
}

// Start returns the offset of field k in Data.
func (ix *Index) Start(k int) int64 { return ix.Starts[ix.entry(k)] }

// Len returns the length of field k.
func (ix *Index) Len(k int) uint32 { return ix.Lens[ix.entry(k)] }

// Field returns the bytes of field k.
func (ix *Index) Field(k int) []byte {
	e := ix.entry(k)
	s := ix.Starts[e]
	return ix.Data[s : s+int64(ix.Lens[e])]
}

// Entries returns the starts and lengths of fields [lo, hi), which must
// lie in one block of the index: entry j is field lo+j's. A walk over a
// run of fields reads them from these slices instead of locating each.
func (ix *Index) Entries(lo, hi int) ([]int64, []uint32) {
	e := ix.entry(lo)
	if hi > lo && ix.entry(hi-1) != e+hi-1-lo {
		panic(fmt.Sprintf("css: fields [%d,%d) cross a block of %d", lo, hi, 1<<ix.shift))
	}
	return ix.Starts[e : e+hi-lo], ix.Lens[e : e+hi-lo]
}

// Tagged returns the index of a RecordTagged column whose fields the
// partition's index walk located in data: record k's field starts at
// its entry of starts and holds its entry of lens bytes, the entries
// laid out in blocks of 1<<shift records, stride elements apart (a
// stride of 1<<shift, or a single block, is contiguous). It views the
// two arrays, with no launch and no allocation, after checking that
// they hold every record's entry.
func Tagged(data []byte, starts []int64, lens []uint32, numRecords int, shift uint, stride int) (*Index, error) {
	ix := &Index{Data: data, Starts: starts, Lens: lens, n: numRecords, shift: shift, stride: stride}
	if numRecords == 0 {
		return ix, nil
	}
	if last := ix.entry(numRecords - 1); last >= len(starts) || last >= len(lens) {
		return nil, fmt.Errorf("css: %d field starts and %d lengths do not hold %d records in blocks of %d, %d apart",
			len(starts), len(lens), numRecords, 1<<shift, stride)
	}
	return ix, nil
}

// gatherPiece is the field length above which Gather copies a field in
// parallel pieces, and the input span of each piece: one tile.
const gatherPiece = 4096

// Gather builds the CSS of a RecordTagged column some of whose fields
// span several data runs of ix.Data, and returns that CSS's index: the
// fields' data bytes in record order, each field contiguous. control
// marks the bytes of ix.Data that belong to no field value; field k's
// data is the first Lens[k] clear bits of control from Starts[k] on.
// An exclusive scan of the lengths places every field, and a gather
// launch copies each field's data runs into place. A field longer than
// gatherPiece is deferred and copied in parallel pieces of gatherPiece
// input bytes, each placed at its distance from the field's start less
// the control bits before it, which one word-level popcount walk over
// the field's span finds. Buffers come from a (the Go heap when nil).
func Gather(d *device.Device, a *device.Arena, phase string, ix *Index, control *bitmap.Bitmap) *Index {
	n := ix.NumFields()
	starts := device.AllocDirty[int64](a, n)
	lens := device.AllocDirty[uint32](a, n)
	var total int64
	for k := range n {
		e := ix.entry(k)
		starts[k], lens[k] = total, ix.Lens[e]
		total += int64(ix.Lens[e])
	}
	out := device.AllocDirty[byte](a, int(total))
	src := ix.Data

	var mu sync.Mutex
	var long []int
	d.LaunchBlocks(phase, n, func(_, first, limit int) {
		var local []int
		for k := first; k < limit; k++ {
			l := int64(lens[k])
			if l > gatherPiece {
				local = append(local, k)
				continue
			}
			gatherRuns(out[starts[k]:starts[k]+l], src, control, int(ix.Start(k)), len(src))
		}
		if len(local) > 0 {
			mu.Lock()
			long = append(long, local...)
			mu.Unlock()
		}
	})

	if len(long) > 0 {
		// piece is one gatherPiece span of a long field: input bytes
		// [in, in+gatherPiece) fill out[at:end].
		type piece struct{ in, at, end int64 }
		var pieces []piece
		for _, k := range long {
			in, at := ix.Start(k), starts[k]
			end := at + int64(lens[k])
			for at < end && in < int64(len(src)) {
				hi := min(in+gatherPiece, int64(len(src)))
				pieces = append(pieces, piece{in, at, end})
				at += hi - in - int64(control.PopCountRange(int(in), int(hi)))
				in = hi
			}
		}
		d.Launch(phase, len(pieces), func(j int) {
			pc := pieces[j]
			hi := min(pc.in+gatherPiece, int64(len(src)))
			gatherRuns(out[pc.at:pc.end], src, control, int(pc.in), int(hi))
		})
	}
	return &Index{Data: out, Starts: starts, Lens: lens}
}

// gatherRuns copies the data bytes of src[lo:hi] (the clear bits of
// control) in order into dst until dst is full or the range ends.
func gatherRuns(dst, src []byte, control *bitmap.Bitmap, lo, hi int) {
	w := 0
	for i := lo; i < hi && w < len(dst); {
		e, ok := control.FirstSetInRange(i, hi)
		if !ok {
			e = hi
		}
		w += copy(dst[w:], src[i:e])
		if i, ok = control.FirstClearInRange(e, hi); !ok {
			return
		}
	}
}

// BuildIndexArena derives the CSS index of an InlineTerminated or
// VectorDelimited column on the device. It runs with phase attributing
// the work to a pipeline timer (part of the convert step in Figure 9's
// breakdown) and draws its buffers from the arena (the Go heap when
// nil), so the index is valid until the arena is reset. Distinct
// columns may build their indexes concurrently as long as each call
// uses its own arena (the parallel convert stage passes one arena shard
// per worker); the column itself is read-only here. A RecordTagged
// column has no mark to index: Tagged views the partition's index.
func (c *Column) BuildIndexArena(d *device.Device, a *device.Arena, phase string) (*Index, error) {
	switch c.Mode {
	case InlineTerminated:
		data, term := c.Data, c.Terminator
		sep := []byte{term}
		return indexByMark(d, a, phase, data,
			func(lo, hi int) int64 { return int64(bytes.Count(data[lo:hi], sep)) },
			func(lo int) int { return bytes.LastIndexByte(data[:lo], term) },
			func(lo, hi int, marks []int64) {
				w := 0
				for i := lo; i < hi; {
					j := bytes.IndexByte(data[i:hi], term)
					if j < 0 {
						return
					}
					i += j
					marks[w] = int64(i)
					w++
					i++
				}
			})
	case VectorDelimited:
		aux, base := c.Aux, c.AuxBase
		if aux == nil || base < 0 || base+len(c.Data) > aux.Len() {
			return nil, fmt.Errorf("css: aux vector does not cover data bytes [%d,%d)", base, base+len(c.Data))
		}
		return indexByMark(d, a, phase, c.Data,
			func(lo, hi int) int64 { return int64(aux.PopCountRange(base+lo, base+hi)) },
			func(lo int) int {
				if m, ok := aux.LastSetInRange(base, base+lo); ok {
					return m - base
				}
				return -1
			},
			func(lo, hi int, marks []int64) {
				w := 0
				lo, hi = base+lo, base+hi
				for wd := lo >> 6; wd<<6 < hi; wd++ {
					x := aux.Word(wd)
					if wd<<6 < lo {
						x &= ^uint64(0) << uint(lo&63)
					}
					if rem := hi - wd<<6; rem < 64 {
						x &= 1<<uint(rem) - 1
					}
					for ; x != 0; x &= x - 1 {
						marks[w] = int64(wd<<6 + bits.TrailingZeros64(x) - base)
						w++
					}
				}
			})
	default:
		return nil, fmt.Errorf("css: no mark index for mode %v", c.Mode)
	}
}

// indexByMark builds the index for inline-terminated and vector-delimited
// CSSs: field k spans from just after mark k-1 to mark k. When the CSS
// does not end with a mark (a trailing record without final delimiter),
// the tail forms one more field. count returns the marks in bytes [lo,
// hi), last the position of the last mark before lo (-1 when none), and
// scatter writes the marks' positions in [lo, hi) in order. All three
// run once per 4 KiB tile, so the per-byte work stays inside the mode's
// own loop; only a tile holding a mark looks back for the one before
// it, so each field's bytes are looked back over at most once.
func indexByMark(d *device.Device, a *device.Arena, phase string, data []byte, count func(lo, hi int) int64, last func(lo int) int, scatter func(lo, hi int, marks []int64)) (*Index, error) {
	const tile = 4096
	n := len(data)
	tiles := (n + tile - 1) / tile
	bounds := func(t int) (int, int) { return t * tile, min((t+1)*tile, n) }

	// Pass 1: per-tile mark counts, scanned into each tile's first slot.
	first := device.AllocDirty[int64](a, tiles)
	d.Launch(phase, tiles, func(t int) {
		first[t] = count(bounds(t))
	})
	marks := scan.ExclusiveArena(d, a, phase, scan.Sum[int64](), first, first)

	// Pass 2: every tile scatters its mark positions into Starts, then
	// turns each into its field's start and length in place.
	starts := device.AllocDirty[int64](a, int(marks)+1)
	lens := device.AllocDirty[uint32](a, int(marks)+1)
	var tooLong atomic.Int64
	d.Launch(phase, tiles, func(t int) {
		lo, hi := bounds(t)
		w, next := first[t], marks
		if t+1 < tiles {
			next = first[t+1]
		}
		if w == next {
			return
		}
		scatter(lo, hi, starts[w:next])
		prev := int64(last(lo))
		for k := w; k < next; k++ {
			m := starts[k]
			starts[k], prev = prev+1, m
			if !setLen(lens, k, m-starts[k]) {
				tooLong.Store(m - starts[k])
			}
		}
	})
	if l := tooLong.Load(); l > 0 {
		return nil, FieldTooLong(l)
	}
	fields := int(marks)
	end := int64(-1) // the last mark
	if marks > 0 {
		end = starts[marks-1] + int64(lens[marks-1])
	}
	if n > 0 && end != int64(n-1) {
		starts[marks] = end + 1
		if !setLen(lens, marks, int64(n)-end-1) {
			return nil, FieldTooLong(int64(n) - end - 1)
		}
		fields++
	}
	return &Index{Data: data, Starts: starts[:fields], Lens: lens[:fields]}, nil
}

// setLen stores l as lens[k], reporting false when it does not fit.
func setLen(lens []uint32, k, l int64) bool {
	if l > math.MaxUint32 {
		return false
	}
	lens[k] = uint32(l)
	return true
}

// ErrFieldTooLong reports a field of 4 GiB or more: an index length is
// a uint32.
var ErrFieldTooLong = fmt.Errorf("css: field exceeds the %d-byte field limit", int64(math.MaxUint32))

// FieldTooLong is the error for a field of l bytes.
func FieldTooLong(l int64) error {
	return fmt.Errorf("%w: %d bytes", ErrFieldTooLong, l)
}
