// predicate.go implements the raw-byte predicate evaluators behind the
// public ScanOptions.Where API (§4.3 extended): cheap row filters —
// equality, prefix, null check, numeric range — evaluated against a
// field's raw symbol bytes before the record materialises, so rows
// failing the predicate never reach the partition or convert stages.
// Numeric comparisons reuse the convert stage's field parsers
// (parse.go), so a range test parses a field exactly as the convert
// stage would.
package convert

import (
	"bytes"
	"fmt"
)

// PredOp enumerates the predicate comparisons.
type PredOp uint8

const (
	// PredNone is the zero value; it is invalid and rejected by Validate.
	PredNone PredOp = iota
	// PredEq keeps rows whose raw field bytes equal Value exactly.
	PredEq
	// PredNe keeps rows whose raw field bytes differ from Value.
	PredNe
	// PredPrefix keeps rows whose raw field bytes start with Value.
	PredPrefix
	// PredIsNull keeps rows whose field is empty (or missing) after
	// default-value substitution.
	PredIsNull
	// PredNotNull keeps rows whose field is non-empty after default-value
	// substitution.
	PredNotNull
	// PredIntRange keeps rows whose field parses as an integer in
	// [IntLo, IntHi]. Unparseable or empty fields fail the predicate.
	PredIntRange
	// PredFloatRange keeps rows whose field parses as a float in
	// [FloatLo, FloatHi]. Unparseable or empty fields fail the predicate.
	PredFloatRange
)

func (op PredOp) String() string {
	switch op {
	case PredEq:
		return "eq"
	case PredNe:
		return "ne"
	case PredPrefix:
		return "prefix"
	case PredIsNull:
		return "isnull"
	case PredNotNull:
		return "notnull"
	case PredIntRange:
		return "intrange"
	case PredFloatRange:
		return "floatrange"
	default:
		return fmt.Sprintf("predop(%d)", uint8(op))
	}
}

// Predicate is one raw-byte row filter: a comparison against the value
// bytes of one input column (pre-selection numbering, like
// SelectColumns). A row is kept only if every predicate of the Where
// list holds (conjunction).
//
// The value a predicate sees is exactly the field value the convert
// stage would materialise: the field's data bytes with control symbols
// (quotes, carriage returns, comment bytes) removed, with the column's
// DefaultValues entry substituted when the field is empty, and with
// fields missing from ragged records treated as empty. PredIsNull/
// PredNotNull therefore test emptiness after default substitution — a
// raw-byte definition that is independent of the column's type (it does
// not match NULLs arising from failed type conversions).
type Predicate struct {
	// Column is the input column index the predicate reads
	// (pre-selection numbering; it need not be among the selected
	// columns).
	Column int
	// Op is the comparison.
	Op PredOp
	// Value is the comparison operand of PredEq/PredNe/PredPrefix.
	Value []byte
	// IntLo, IntHi bound PredIntRange (inclusive).
	IntLo, IntHi int64
	// FloatLo, FloatHi bound PredFloatRange (inclusive).
	FloatLo, FloatHi float64
}

// Validate reports configuration errors that do not depend on the
// input: an unknown op, a negative column, or — when the column count
// is known up front (numColumns > 0, from a fixed schema or
// ExpectedColumns) — a column beyond it.
func (p Predicate) Validate(numColumns int) error {
	switch p.Op {
	case PredEq, PredNe, PredPrefix, PredIsNull, PredNotNull, PredIntRange, PredFloatRange:
	default:
		return fmt.Errorf("convert: unknown predicate op %v", p.Op)
	}
	if p.Column < 0 {
		return fmt.Errorf("convert: predicate column %d is negative", p.Column)
	}
	if numColumns > 0 && p.Column >= numColumns {
		return fmt.Errorf("convert: predicate column %d outside the schema's %d columns", p.Column, numColumns)
	}
	return nil
}

// Eval evaluates the predicate against one field's value bytes (already
// control-stripped and default-substituted; empty means NULL in the
// raw-byte sense documented on Predicate). It never allocates.
func (p Predicate) Eval(v []byte) bool {
	switch p.Op {
	case PredEq:
		return bytes.Equal(v, p.Value)
	case PredNe:
		return !bytes.Equal(v, p.Value)
	case PredPrefix:
		return bytes.HasPrefix(v, p.Value)
	case PredIsNull:
		return len(v) == 0
	case PredNotNull:
		return len(v) != 0
	case PredIntRange:
		x, err := ParseInt64(v)
		return err == nil && x >= p.IntLo && x <= p.IntHi
	case PredFloatRange:
		x, err := ParseFloat64(v)
		return err == nil && x >= p.FloatLo && x <= p.FloatHi
	default:
		return false
	}
}
