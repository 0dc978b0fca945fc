// Package css implements the concatenated symbol string (CSS)
// representation of §3.3 and the three tagging modes of §4.1 (Figure 6).
//
// After partitioning, all symbols of a column lie cohesively in one CSS
// buffer. To convert field values, the algorithm needs an *index* into
// the CSS: the offset and length of every field's symbol string. How that
// index is derived depends on the tagging mode:
//
//   - RecordTagged: the paper gives every symbol a 4-byte record tag
//     and run-length encodes the tags into per-record lengths. Here the
//     partition scatter, which knows the record of every data run it
//     moves, emits those lengths directly (one 8-byte count per field),
//     so the index is the exclusive prefix sum of the lengths alone.
//     Robust: tolerates records with varying column counts (a record
//     without the column has length 0).
//   - InlineTerminated: field/record delimiters are replaced by a unique
//     terminator byte inside the CSS (like '\0' for C strings); the index
//     is the list of terminator positions. Requires the terminator byte
//     to never occur in field data.
//   - VectorDelimited: delimiters stay in the CSS, and an auxiliary
//     boolean vector marks them; the index is the list of marked
//     positions. No reserved byte needed.
//
// The mark-based indexes test every CSS byte through a closure, while
// the RecordTagged index reads one length per field: RecordTagged is
// the fastest mode here, the reverse of the paper's Figure 11. Convert
// of 4 MiB (fixed schema, 2-vCPU Xeon) takes 2.3 ms on yelp and 23 ms
// on taxi record-tagged (6.7 and 30 ms with per-symbol tags), against
// 21–26 and 53–55 ms in the other two modes.
package css

import (
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
	// Lengths holds the number of symbols of every record, in record
	// order (RecordTagged mode only): the run-length encoding of the
	// paper's per-symbol record tags. They must sum to len(Data).
	Lengths []int64
	// Aux marks delimiter positions in Data (VectorDelimited mode only).
	Aux []bool
	// Terminator is the in-band field terminator (InlineTerminated only).
	Terminator byte
}

// Index maps fields to their symbol strings inside a CSS: field k spans
// Data[Starts[k]:Starts[k]+Lengths[k]]. For RecordTagged columns field k
// *is* record k (empty fields have length 0); for the other two modes
// field k is the k-th field of the column in record order.
type Index struct {
	Starts  []int64
	Lengths []int64
}

// NumFields returns the number of indexed fields.
func (ix *Index) NumFields() int { return len(ix.Starts) }

// Field returns the half-open byte range of field k.
func (ix *Index) Field(k int) (start, end int64) {
	return ix.Starts[k], ix.Starts[k] + ix.Lengths[k]
}

// BuildIndexArena derives the CSS index for the column on the device,
// dispatching on the tagging mode. numRecords is required for
// RecordTagged (the length of Lengths) and ignored otherwise. phase
// attributes the work to a pipeline timer (part of the convert step in
// Figure 9's breakdown). The index buffers and scan temporaries come
// from the arena (the Go heap when nil), so the index is valid until
// the arena is reset; a RecordTagged index shares the column's Lengths.
// Distinct columns may build their indexes concurrently as long as each
// call uses its own arena (the parallel convert stage passes one arena
// shard per worker); the column itself is read-only here.
func (c *Column) BuildIndexArena(d *device.Device, a *device.Arena, phase string, numRecords int) (*Index, error) {
	switch c.Mode {
	case RecordTagged:
		// §3.3's offsets: the exclusive prefix sum of the lengths.
		if len(c.Lengths) != numRecords {
			return nil, fmt.Errorf("css: %d record lengths for %d records", len(c.Lengths), numRecords)
		}
		starts := device.AllocDirty[int64](a, numRecords)
		if total := scan.ExclusiveArena(d, a, phase, scan.Sum[int64](), c.Lengths, starts); total != int64(len(c.Data)) {
			return nil, fmt.Errorf("css: record lengths sum to %d, data length %d", total, len(c.Data))
		}
		return &Index{Starts: starts, Lengths: c.Lengths}, nil
	case InlineTerminated:
		return indexByMark(d, a, phase, len(c.Data), func(i int) bool { return c.Data[i] == c.Terminator })
	case VectorDelimited:
		if len(c.Aux) != len(c.Data) {
			return nil, fmt.Errorf("css: aux vector length %d != data length %d", len(c.Aux), len(c.Data))
		}
		return indexByMark(d, a, phase, len(c.Data), func(i int) bool { return c.Aux[i] })
	default:
		return nil, fmt.Errorf("css: unknown mode %v", c.Mode)
	}
}

// indexByMark builds the index for inline-terminated and vector-delimited
// CSSs: field k spans from just after mark k-1 to mark k. When the CSS
// does not end with a mark (a trailing record without final delimiter),
// the tail forms one more field.
func indexByMark(d *device.Device, a *device.Arena, phase string, n int, marked func(int) bool) (*Index, error) {
	// Pass 1: per-tile mark counts.
	const tile = 4096
	tiles := (n + tile - 1) / tile
	counts := device.Alloc[int64](a, tiles)
	d.Launch(phase, tiles, func(t int) {
		lo, hi := t*tile, (t+1)*tile
		if hi > n {
			hi = n
		}
		var c int64
		for i := lo; i < hi; i++ {
			if marked(i) {
				c++
			}
		}
		counts[t] = c
	})
	offs := device.Alloc[int64](a, tiles)
	total := scan.ExclusiveArena(d, a, phase, scan.Sum[int64](), counts, offs)

	// Pass 2: scatter mark positions.
	marks := device.Alloc[int64](a, int(total))
	d.Launch(phase, tiles, func(t int) {
		lo, hi := t*tile, (t+1)*tile
		if hi > n {
			hi = n
		}
		w := offs[t]
		for i := lo; i < hi; i++ {
			if marked(i) {
				marks[w] = int64(i)
				w++
			}
		}
	})

	fields := int(total)
	trailing := false
	if n > 0 && (fields == 0 || marks[fields-1] != int64(n-1)) {
		trailing = true
		fields++
	}
	ix := &Index{Starts: device.Alloc[int64](a, fields), Lengths: device.Alloc[int64](a, fields)}
	d.Launch(phase, fields, func(k int) {
		var start int64
		if k > 0 {
			start = marks[k-1] + 1
		}
		var end int64
		if trailing && k == fields-1 {
			end = int64(n)
		} else {
			end = marks[k]
		}
		ix.Starts[k] = start
		ix.Lengths[k] = end - start
	})
	return ix, nil
}
