package convert

import (
	"repro/internal/columnar"
	"repro/internal/css"
	"repro/internal/device"
)

// Class is an element of the type-inference lattice (§4.3): every field
// is classified with the minimum type able to back its value, and a
// parallel reduction over a column's classes yields the column's inferred
// type. The paper covers numerical types and notes temporal types as an
// extension; this implementation includes both.
type Class uint8

const (
	// ClassEmpty is the bottom element: an empty field constrains nothing.
	ClassEmpty Class = iota
	// ClassBool fits true/false spellings.
	ClassBool
	// ClassInt64 fits decimal integers.
	ClassInt64
	// ClassFloat64 fits decimal numbers.
	ClassFloat64
	// ClassDate fits YYYY-MM-DD.
	ClassDate
	// ClassTimestamp fits YYYY-MM-DD HH:MM:SS[.ffffff].
	ClassTimestamp
	// ClassString is the top element: anything.
	ClassString
)

func (c Class) String() string {
	switch c {
	case ClassEmpty:
		return "empty"
	case ClassBool:
		return "bool"
	case ClassInt64:
		return "int64"
	case ClassFloat64:
		return "float64"
	case ClassDate:
		return "date"
	case ClassTimestamp:
		return "timestamp"
	default:
		return "string"
	}
}

// Classify returns the minimal class able to back the field value.
func Classify(b []byte) Class {
	if len(b) == 0 {
		return ClassEmpty
	}
	if _, err := ParseInt64(b); err == nil {
		return ClassInt64
	}
	if _, err := ParseFloat64(b); err == nil {
		return ClassFloat64
	}
	if _, err := ParseBool(b); err == nil {
		return ClassBool
	}
	if len(b) == 10 {
		if _, err := ParseDate32(b); err == nil {
			return ClassDate
		}
	}
	if len(b) >= 19 {
		if _, err := ParseTimestampMicros(b); err == nil {
			return ClassTimestamp
		}
	}
	return ClassString
}

// Unify is the lattice join: the minimal class covering both operands.
// It is associative and commutative, so it is a valid reduction operator.
func Unify(a, b Class) Class {
	if a == b {
		return a
	}
	if a == ClassEmpty {
		return b
	}
	if b == ClassEmpty {
		return a
	}
	// Numeric chain.
	if isNumeric(a) && isNumeric(b) {
		if a == ClassFloat64 || b == ClassFloat64 {
			return ClassFloat64
		}
		return ClassInt64
	}
	// Temporal chain: dates widen to timestamps.
	if isTemporal(a) && isTemporal(b) {
		return ClassTimestamp
	}
	return ClassString
}

func isNumeric(c Class) bool  { return c == ClassInt64 || c == ClassFloat64 }
func isTemporal(c Class) bool { return c == ClassDate || c == ClassTimestamp }

// Type maps an inferred class to the columnar type backing it. An
// all-empty (or empty-input) column materialises as String.
func (c Class) Type() columnar.Type {
	switch c {
	case ClassBool:
		return columnar.Bool
	case ClassInt64:
		return columnar.Int64
	case ClassFloat64:
		return columnar.Float64
	case ClassDate:
		return columnar.Date32
	case ClassTimestamp:
		return columnar.TimestampMicros
	default:
		return columnar.String
	}
}

// InferColumn classifies every indexed field of a column in parallel and
// reduces the classes to the column's inferred type (§4.3): "During an
// initial pass over the column's symbols, threads identify the minimum
// numerical type being required to back their field value. A subsequent
// parallel reduction over the minimum type yields the inferred type."
func InferColumn(d *device.Device, phase string, ix *css.Index) Class {
	return InferColumnArena(d, nil, phase, ix)
}

// InferColumnArena is InferColumn with the reduction's per-block partial
// buffer drawn from the device arena. Like Materialize it walks the
// fields in runs of the device's block size.
func InferColumnArena(d *device.Device, a *device.Arena, phase string, ix *css.Index) Class {
	return InferColumns(d, a, phase, []*css.Index{ix}, d.Config().BlockSize)[0]
}

// InferColumns infers the classes of several columns that share their
// records, walking the records in blocks of block records across all
// columns like MaterializeColumns (and with its rule for block): each block reduces every column's
// classes to one partial, and the partials, drawn from the arena,
// reduce to each column's class. A column stops classifying a block
// once its partial reaches the top of the lattice.
func InferColumns(d *device.Device, a *device.Arena, phase string, ixs []*css.Index, block int) []Class {
	n := 0
	if len(ixs) > 0 {
		n = ixs[0].NumFields()
	}
	// One record block per device block (the threads are only counted).
	blocks, bs := (n+block-1)/block, d.Config().BlockSize
	partial := device.Alloc[Class](a, blocks*len(ixs))
	d.LaunchBlocks(phase, blocks*bs, func(b, _, _ int) {
		lo, hi := b*block, min((b+1)*block, n)
		for c, ix := range ixs {
			acc := ClassEmpty
			starts, lens := ix.Entries(lo, hi)
			for j := 0; j < len(starts) && acc != ClassString; j++ {
				acc = Unify(acc, Classify(ix.Data[starts[j]:starts[j]+int64(lens[j])]))
			}
			partial[b*len(ixs)+c] = acc
		}
	})
	out := make([]Class, len(ixs))
	for i, cl := range partial {
		out[i%len(ixs)] = Unify(out[i%len(ixs)], cl)
	}
	return out
}
