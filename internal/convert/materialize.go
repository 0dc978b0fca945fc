package convert

import (
	"fmt"
	"sync"

	"repro/internal/columnar"
	"repro/internal/css"
	"repro/internal/device"
)

// ThreadFieldThreshold is the maximum symbol-string length a thread
// materialises exclusively; longer fields are deferred to block-level
// collaboration (§3.3). The value models the per-thread register/local
// budget of a GPU thread.
const ThreadFieldThreshold = 256

// Policy controls NULL, default-value and rejection semantics (§4.3).
type Policy struct {
	// Default replaces empty fields when non-nil ("Default values for
	// empty strings"); when nil, empty fields of non-string columns
	// become NULL and empty fields of string columns become "".
	Default []byte
	// RejectOnError marks the whole record rejected when a field fails
	// type conversion; otherwise the field becomes NULL.
	RejectOnError bool
}

// Materialize converts one column's indexed fields into a typed
// columnar column. Field k of the index corresponds to record k
// (guaranteed by the record-tagged index construction, and by the
// constant-columns requirement of the inline/vector modes, §4.1). The
// index's bytes are copied or parsed, never retained: for a
// record-tagged column they are the caller's input. rejected, when
// non-nil, is a per-record reject vector in the sense of Figure 5; it
// must only be written through one Materialize call at a time. The
// sequential convert loop passes the run's shared vector directly; the
// parallel convert stage gives each worker a private shadow vector and
// OR-merges the shadows afterwards, which preserves that contract under
// concurrent column work. It walks the fields in runs of the device's
// block size, so a css.Tagged view's blocks must be a multiple of it.
func Materialize(d *device.Device, phase string, ix *css.Index, field columnar.Field, pol Policy, rejected []bool) (*columnar.Column, error) {
	cols := MaterializeColumns(d, phase, []*css.Index{ix}, []columnar.Field{field}, []Policy{pol}, rejected, d.Config().BlockSize)
	return cols[0], nil
}

// MaterializeColumns converts the indexed fields of several columns
// that share their records into typed columns, one per index. It walks
// the records in blocks of block records, every column of a block
// before the next block, so that the bytes a block's fields lie in — a
// span of the input, for the columns of a record-tagged partition — are
// read from the cache by every column rather than streamed from memory
// once per column. The blocks are the launch's threads, and each must
// lie in one block of every index (css.Index.Entries). rejected, when
// non-nil, receives the reject bits of every column (Policy).
func MaterializeColumns(d *device.Device, phase string, ixs []*css.Index, fields []columnar.Field, pols []Policy, rejected []bool, block int) []*columnar.Column {
	n := 0
	if len(ixs) > 0 {
		n = ixs[0].NumFields()
	}
	// One record block per device block (the threads are only counted).
	blocks, bs := (n+block-1)/block, d.Config().BlockSize
	bounds := func(b int) (int, int) { return b * block, min((b+1)*block, n) }
	builders := make([]*columnar.Builder, len(ixs))
	var strs []int
	for c, f := range fields {
		builders[c] = columnar.NewBuilder(f, n)
		if f.Type == columnar.String {
			strs = append(strs, c)
		}
	}
	if len(strs) > 0 {
		// Stage lengths (empty fields take the default value's length).
		d.LaunchBlocks(phase, blocks*bs, func(b, _, _ int) {
			lo, hi := bounds(b)
			for _, c := range strs {
				_, lens := ixs[c].Entries(lo, hi)
				def := pols[c].Default
				for j, l := range lens {
					if l == 0 && def != nil {
						l = uint32(len(def))
					}
					builders[c].SetStringLength(lo+j, int(l))
				}
			}
		})
		for _, c := range strs {
			builders[c].Seal()
		}
	}

	// String fields longer than a thread copies alone are deferred to
	// the collaboration levels of materializeLong.
	var mu sync.Mutex
	var long []field
	d.LaunchBlocks(phase, blocks*bs, func(b, _, _ int) {
		lo, hi := bounds(b)
		var local []field
		for c, ix := range ixs {
			if fields[c].Type == columnar.String {
				local = copyStrings(ix, builders[c], pols[c], c, lo, hi, local)
			} else {
				parseFixed(ix, builders[c], pols[c], lo, hi, rejected)
			}
		}
		if len(local) > 0 {
			mu.Lock()
			long = append(long, local...)
			mu.Unlock()
		}
	})
	materializeLong(d, phase, ixs, builders, pols, long)

	out := make([]*columnar.Column, len(builders))
	for c, b := range builders {
		out[c] = b.Finish()
	}
	return out
}

// field names field k of column c.
type field struct{ c, k int }

// parseFixed parses fields [lo, hi) of a fixed-width column into b.
func parseFixed(ix *css.Index, b *columnar.Builder, pol Policy, lo, hi int, rejected []bool) {
	typ := b.Field().Type
	starts, lens := ix.Entries(lo, hi)
	for j, s := range starts {
		k, v := lo+j, ix.Data[s:s+int64(lens[j])]
		if len(v) == 0 {
			if pol.Default == nil {
				b.SetNull(k)
				continue
			}
			v = pol.Default
		}
		if err := parseInto(b, typ, k, v); err != nil {
			if pol.RejectOnError && rejected != nil {
				rejected[k] = true
			}
			b.SetNull(k)
		}
	}
}

// copyStrings copies fields [lo, hi) of string column c into b, each
// thread-exclusively (§3.3), and appends to long the fields longer
// than ThreadFieldThreshold, which it leaves for materializeLong.
func copyStrings(ix *css.Index, b *columnar.Builder, pol Policy, c, lo, hi int, long []field) []field {
	starts, lens := ix.Entries(lo, hi)
	for j, s := range starts {
		k, v := lo+j, ix.Data[s:s+int64(lens[j])]
		if len(v) == 0 && pol.Default != nil {
			v = pol.Default
		}
		if len(v) > ThreadFieldThreshold {
			long = append(long, field{c, k})
			continue
		}
		copy(b.StringDst(k), v)
	}
	return long
}

// parseInto parses one field value into builder slot k.
func parseInto(b *columnar.Builder, typ columnar.Type, k int, v []byte) error {
	switch typ {
	case columnar.Int64:
		x, err := ParseInt64(v)
		if err != nil {
			return err
		}
		b.SetInt64(k, x)
	case columnar.Float64:
		x, err := ParseFloat64(v)
		if err != nil {
			return err
		}
		b.SetFloat64(k, x)
	case columnar.Bool:
		x, err := ParseBool(v)
		if err != nil {
			return err
		}
		b.SetBool(k, x)
	case columnar.Date32:
		x, err := ParseDate32(v)
		if err != nil {
			return err
		}
		b.SetInt64(k, x)
	case columnar.TimestampMicros:
		x, err := ParseTimestampMicros(v)
		if err != nil {
			return err
		}
		b.SetInt64(k, x)
	default:
		return fmt.Errorf("convert: unsupported fixed type %v", typ)
	}
	return nil
}

// materializeLong copies the long string fields copyStrings deferred,
// using the two upper collaboration levels of §3.3: a field within the
// block's shared-memory budget is copied by one block's threads
// cooperatively; a longer one by the whole device, the copy itself
// data-parallel over the field's bytes — this is what keeps a single
// 200 MB record from stalling the pipeline (Figure 11).
func materializeLong(d *device.Device, phase string, ixs []*css.Index, bs []*columnar.Builder, pols []Policy, long []field) {
	// value is field f's bytes, or its column's default for an empty
	// field.
	value := func(f field) []byte {
		if v := ixs[f.c].Field(f.k); len(v) > 0 {
			return v
		}
		return pols[f.c].Default
	}
	blockBudget := d.Config().SharedMemPerBlock
	var blockLevel, deviceLevel []field
	for _, f := range long {
		if len(value(f)) <= blockBudget {
			blockLevel = append(blockLevel, f)
		} else {
			deviceLevel = append(deviceLevel, f)
		}
	}

	// Level 2: one block per deferred field; the block's threads copy the
	// field cooperatively.
	if len(blockLevel) > 0 {
		bs0 := d.Config().BlockSize
		d.LaunchBlocks(phase, len(blockLevel)*bs0, func(block, _, _ int) {
			if block >= len(blockLevel) {
				return
			}
			f := blockLevel[block]
			copy(bs[f.c].StringDst(f.k), value(f))
		})
	}

	// Level 3: whole-device data-parallel copy per giant field, chunked
	// exactly like the top-level parsing pass.
	for _, f := range deviceLevel {
		src := value(f)
		dst := bs[f.c].StringDst(f.k)
		const chunk = 64 << 10
		pieces := (len(src) + chunk - 1) / chunk
		d.Launch(phase, pieces, func(p int) {
			lo := p * chunk
			hi := min(lo+chunk, len(src))
			copy(dst[lo:hi], src[lo:hi])
		})
	}
}
