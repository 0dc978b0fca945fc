// Package css implements the concatenated symbol string (CSS)
// representation of §3.3 and the three tagging modes of §4.1 (Figure 6).
//
// After partitioning, all symbols of a column lie cohesively in one CSS
// buffer. To convert field values, the algorithm needs an *index* into
// the CSS: where every field's symbol string starts and ends. How that
// index is derived depends on the tagging mode:
//
//   - RecordTagged: the paper gives every symbol a 4-byte record tag,
//     run-length encodes the sorted tags into per-record lengths and
//     scans the lengths into offsets. Here the partition scatter's move
//     pass, which holds every field's end as its column cursor at the
//     field's closing delimiter, writes the offsets themselves (one
//     8-byte end per field), so the index is two views of that array
//     and takes no launch. Robust: tolerates records with varying
//     column counts (a record without the column has an empty field).
//   - InlineTerminated: field/record delimiters are replaced by a unique
//     terminator byte inside the CSS (like '\0' for C strings); the index
//     is the list of terminator positions. Requires the terminator byte
//     to never occur in field data.
//   - VectorDelimited: delimiters stay in the CSS, and an auxiliary
//     boolean vector marks them; the index is the list of marked
//     positions. No reserved byte needed.
//
// The mark-based indexes read every CSS byte (or aux flag) twice, once
// to count the marks per tile and once to scatter their positions,
// while the RecordTagged index reads nothing: RecordTagged is the
// fastest mode here, the reverse of the paper's Figure 11. Convert of
// 4 MiB (fixed schema, 2-vCPU Xeon) takes 1.8 ms on yelp and 12 ms on
// taxi record-tagged, against 2.9 and 23 ms inline and 6.4 and 21 ms
// vector-delimited.
package css

import (
	"bytes"
	"fmt"

	"repro/internal/device"
	"repro/internal/scan"
)

// Mode selects the tagging representation (§4.1).
type Mode int

const (
	// RecordTagged is the robust default: per-record symbol counts.
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

// Column is one column's CSS plus the mode-specific metadata needed to
// index it.
type Column struct {
	Mode Mode
	// Data is the concatenated symbol string.
	Data []byte
	// Offsets holds numRecords+1 field boundaries in Data (RecordTagged
	// mode only): record k's field spans Data[Offsets[k]:Offsets[k+1]].
	// Offsets[0] is 0 and Offsets[numRecords] is len(Data). They are the
	// exclusive prefix sum of the run-length encoding of the paper's
	// per-symbol record tags, which the move pass writes directly.
	Offsets []int64
	// Aux marks delimiter positions in Data (VectorDelimited mode only).
	Aux []bool
	// Terminator is the in-band field terminator (InlineTerminated only).
	Terminator byte
}

// Index maps fields to their symbol strings inside a CSS: field k spans
// Data[Starts[k]:Ends[k]]. For RecordTagged columns field k *is* record
// k (empty fields start where they end), and Starts and Ends are two
// views of the column's Offsets; for the other two modes field k is the
// k-th field of the column in record order.
type Index struct {
	Starts []int64
	Ends   []int64
}

// NumFields returns the number of indexed fields.
func (ix *Index) NumFields() int { return len(ix.Starts) }

// Field returns the half-open byte range of field k.
func (ix *Index) Field(k int) (start, end int64) {
	return ix.Starts[k], ix.Ends[k]
}

// BuildIndexArena derives the CSS index for the column on the device,
// dispatching on the tagging mode. numRecords is required for
// RecordTagged (one less than the length of Offsets) and ignored
// otherwise. A RecordTagged index is two views of the column's Offsets:
// it checks them and makes no launch and no allocation. The mark-based
// indexes run on the device, with phase attributing the work to a
// pipeline timer (part of the convert step in Figure 9's breakdown),
// and draw their buffers from the arena (the Go heap when nil), so the
// index is valid until the arena is reset. Distinct columns may build
// their indexes concurrently as long as each call uses its own arena
// (the parallel convert stage passes one arena shard per worker); the
// column itself is read-only here.
func (c *Column) BuildIndexArena(d *device.Device, a *device.Arena, phase string, numRecords int) (*Index, error) {
	switch c.Mode {
	case RecordTagged:
		offs := c.Offsets
		if len(offs) != numRecords+1 {
			return nil, fmt.Errorf("css: %d record offsets for %d records", len(offs), numRecords)
		}
		if offs[0] != 0 {
			return nil, fmt.Errorf("css: record offsets start at %d, not 0", offs[0])
		}
		if offs[numRecords] != int64(len(c.Data)) {
			return nil, fmt.Errorf("css: record offsets end at %d, data length %d", offs[numRecords], len(c.Data))
		}
		return &Index{Starts: offs[:numRecords], Ends: offs[1:]}, nil
	case InlineTerminated:
		data, term := c.Data, c.Terminator
		sep := []byte{term}
		return indexByMark(d, a, phase, len(data),
			func(lo, hi int) int64 { return int64(bytes.Count(data[lo:hi], sep)) },
			func(lo, hi int, ends []int64) {
				w := 0
				for i := lo; i < hi; {
					j := bytes.IndexByte(data[i:hi], term)
					if j < 0 {
						return
					}
					i += j
					ends[w] = int64(i)
					w++
					i++
				}
			})
	case VectorDelimited:
		if len(c.Aux) != len(c.Data) {
			return nil, fmt.Errorf("css: aux vector length %d != data length %d", len(c.Aux), len(c.Data))
		}
		aux := c.Aux
		return indexByMark(d, a, phase, len(aux),
			func(lo, hi int) int64 {
				var n int64
				for _, m := range aux[lo:hi] {
					if m {
						n++
					}
				}
				return n
			},
			func(lo, hi int, ends []int64) {
				w := 0
				for i, m := range aux[lo:hi] {
					if m {
						ends[w] = int64(lo + i)
						w++
					}
				}
			})
	default:
		return nil, fmt.Errorf("css: unknown mode %v", c.Mode)
	}
}

// indexByMark builds the index for inline-terminated and vector-delimited
// CSSs of n bytes: field k spans from just after mark k-1 to mark k.
// When the CSS does not end with a mark (a trailing record without final
// delimiter), the tail forms one more field. count returns the marks in
// bytes [lo, hi), and scatter writes their positions in order to ends.
// Both run once per 4 KiB tile, so the per-byte work stays inside the
// mode's own loop.
func indexByMark(d *device.Device, a *device.Arena, phase string, n int, count func(lo, hi int) int64, scatter func(lo, hi int, ends []int64)) (*Index, error) {
	const tile = 4096
	tiles := (n + tile - 1) / tile
	bounds := func(t int) (int, int) { return t * tile, min((t+1)*tile, n) }

	// Pass 1: per-tile mark counts, scanned into each tile's first slot.
	first := device.AllocDirty[int64](a, tiles)
	d.Launch(phase, tiles, func(t int) {
		first[t] = count(bounds(t))
	})
	marks := scan.ExclusiveArena(d, a, phase, scan.Sum[int64](), first, first)

	// Pass 2: every tile scatters its mark positions to ends, and the
	// start of the field after each mark to starts, one slot ahead.
	starts := device.AllocDirty[int64](a, int(marks)+1)
	ends := device.AllocDirty[int64](a, int(marks)+1)
	d.Launch(phase, tiles, func(t int) {
		lo, hi := bounds(t)
		w, next := first[t], marks
		if t+1 < tiles {
			next = first[t+1]
		}
		scatter(lo, hi, ends[w:next])
		for k := w; k < next; k++ {
			starts[k+1] = ends[k] + 1
		}
	})
	starts[0] = 0
	fields := int(marks)
	if n > 0 && (marks == 0 || ends[marks-1] != int64(n-1)) {
		ends[marks] = int64(n)
		fields++
	}
	return &Index{Starts: starts[:fields], Ends: ends[:fields]}, nil
}
