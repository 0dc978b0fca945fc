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

// Materialize converts one column's CSS into a typed columnar column.
// Field k of the index corresponds to record k (guaranteed by the
// record-tagged index construction, and by the constant-columns
// requirement of the inline/vector modes, §4.1). rejected, when non-nil,
// is a per-record reject vector in the sense of Figure 5; it must only
// be written through one Materialize call at a time. The sequential
// convert loop passes the run's shared vector directly; the parallel
// convert stage gives each worker a private shadow vector and OR-merges
// the shadows afterwards, which preserves that contract under
// concurrent column work.
func Materialize(d *device.Device, phase string, col *css.Column, ix *css.Index, field columnar.Field, pol Policy, rejected []bool) (*columnar.Column, error) {
	n := ix.NumFields()
	b := columnar.NewBuilder(field, n)
	switch field.Type {
	case columnar.String:
		materializeString(d, phase, col, ix, b, pol)
	default:
		materializeFixed(d, phase, col, ix, b, pol, rejected)
	}
	return b.Finish(), nil
}

func fieldValue(col *css.Column, ix *css.Index, k int) []byte {
	start, end := ix.Field(k)
	return col.Data[start:end]
}

func materializeFixed(d *device.Device, phase string, col *css.Column, ix *css.Index, b *columnar.Builder, pol Policy, rejected []bool) {
	n := ix.NumFields()
	typ := b.Field().Type
	d.LaunchBlocks(phase, n, func(_, first, limit int) {
		for k := first; k < limit; k++ {
			v := fieldValue(col, ix, k)
			if len(v) == 0 {
				if pol.Default != nil {
					v = pol.Default
				} else {
					b.SetNull(k)
					continue
				}
			}
			if err := parseInto(b, typ, k, v); err != nil {
				if pol.RejectOnError && rejected != nil {
					rejected[k] = true
				}
				b.SetNull(k)
			}
		}
	})
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

// materializeString copies field symbol strings into the Arrow data
// buffer using the three collaboration levels of §3.3: short fields are
// copied thread-exclusively; fields exceeding ThreadFieldThreshold are
// deferred to block-level collaboration; fields exceeding the block's
// shared-memory budget are deferred to device-level collaboration, where
// the copy itself is data-parallel over the field's bytes — this is what
// keeps a single 200 MB record from stalling the pipeline (Figure 11).
func materializeString(d *device.Device, phase string, col *css.Column, ix *css.Index, b *columnar.Builder, pol Policy) {
	n := ix.NumFields()
	defaultLen := len(pol.Default)

	// Stage lengths (empty fields take the default value's length).
	d.LaunchBlocks(phase, n, func(_, first, limit int) {
		for k := first; k < limit; k++ {
			l := int(ix.Ends[k] - ix.Starts[k])
			if l == 0 && pol.Default != nil {
				l = defaultLen
			}
			b.SetStringLength(k, l)
		}
	})
	b.Seal()

	blockBudget := d.Config().SharedMemPerBlock

	var mu sync.Mutex
	var blockDeferred, deviceDeferred []int

	// Level 1: thread-exclusive copies; oversize fields are deferred.
	d.LaunchBlocks(phase, n, func(_, first, limit int) {
		var localBlock, localDevice []int
		for k := first; k < limit; k++ {
			v := fieldValue(col, ix, k)
			if len(v) == 0 && pol.Default != nil {
				v = pol.Default
			}
			switch {
			case len(v) <= ThreadFieldThreshold:
				copy(b.StringDst(k), v)
			case len(v) <= blockBudget:
				localBlock = append(localBlock, k)
			default:
				localDevice = append(localDevice, k)
			}
		}
		if len(localBlock)+len(localDevice) > 0 {
			mu.Lock()
			blockDeferred = append(blockDeferred, localBlock...)
			deviceDeferred = append(deviceDeferred, localDevice...)
			mu.Unlock()
		}
	})

	// Level 2: one block per deferred field; the block's threads copy the
	// field cooperatively.
	if len(blockDeferred) > 0 {
		bs := d.Config().BlockSize
		d.LaunchBlocks(phase, len(blockDeferred)*bs, func(block, _, _ int) {
			if block >= len(blockDeferred) {
				return
			}
			k := blockDeferred[block]
			copy(b.StringDst(k), fieldValue(col, ix, k))
		})
	}

	// Level 3: whole-device data-parallel copy per giant field, chunked
	// exactly like the top-level parsing pass.
	for _, k := range deviceDeferred {
		src := fieldValue(col, ix, k)
		dst := b.StringDst(k)
		const chunk = 64 << 10
		pieces := (len(src) + chunk - 1) / chunk
		d.Launch(phase, pieces, func(p int) {
			lo := p * chunk
			hi := lo + chunk
			if hi > len(src) {
				hi = len(src)
			}
			copy(dst[lo:hi], src[lo:hi])
		})
	}
}
