package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/csv"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	parparaw "repro"
)

// checkTables compares the rows of tables, in order, with the records
// encoding/csv reads from input: row counts and string fields must be
// equal, integers and timestamps must equal strconv/time's reading, and
// floats must lie within 1 ULP of strconv.ParseFloat (the convert
// layer's documented precision contract).
func checkTables(tables []*parparaw.Table, schema *parparaw.Schema, input io.Reader, comma rune) error {
	cr := csv.NewReader(input)
	cr.Comma = comma
	cr.ReuseRecord = true
	cr.FieldsPerRecord = schema.NumColumns()

	ti, row := 0, 0
	var cols []*parparaw.Column
	for rec := 0; ; rec++ {
		fields, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("encoding/csv: %w", err)
		}
		for ti < len(tables) && row == tables[ti].NumRows() {
			ti, row, cols = ti+1, 0, nil
		}
		if ti == len(tables) {
			return fmt.Errorf("output has %d rows, encoding/csv reads more", rec)
		}
		if cols == nil {
			for c := range schema.Fields {
				cols = append(cols, tables[ti].Column(c))
			}
		}
		for c, f := range schema.Fields {
			if err := checkField(cols[c], row, f.Type, fields[c]); err != nil {
				return fmt.Errorf("record %d column %s: %w", rec, f.Name, err)
			}
		}
		row++
	}
	for ; ti < len(tables); ti, row = ti+1, 0 {
		if row < tables[ti].NumRows() {
			return errors.New("output has more rows than encoding/csv reads")
		}
	}
	return nil
}

func checkField(col *parparaw.Column, row int, typ parparaw.Type, field string) error {
	if col.IsNull(row) {
		if field == "" {
			return nil
		}
		return fmt.Errorf("got NULL, want %q", field)
	}
	var ok bool
	switch typ {
	case parparaw.String:
		ok = string(col.Bytes(row)) == field
	case parparaw.Int64:
		v, err := strconv.ParseInt(field, 10, 64)
		ok = err == nil && v == col.Int64(row)
	case parparaw.Float64:
		v, err := strconv.ParseFloat(field, 64)
		ok = err == nil && withinULP(col.Float64(row), v)
	case parparaw.Bool:
		v, err := strconv.ParseBool(field)
		ok = err == nil && v == col.Bool(row)
	case parparaw.Date32:
		t, err := time.Parse(time.DateOnly, field)
		ok = err == nil && t.Unix()/86400 == col.Int64(row)
	case parparaw.TimestampMicros:
		t, err := time.Parse(time.DateTime, field)
		ok = err == nil && t.UnixMicro() == col.Int64(row)
	}
	if !ok {
		return fmt.Errorf("got %s, want %q", col.ValueString(row), field)
	}
	return nil
}

// withinULP reports whether a and b are equal or adjacent float64s.
func withinULP(a, b float64) bool {
	if a == b {
		return true
	}
	if math.Signbit(a) != math.Signbit(b) {
		return false
	}
	d := int64(math.Float64bits(a)) - int64(math.Float64bits(b))
	return d == 1 || d == -1
}

// digest is a SHA-256 over every value of the tables in row order:
// operations that reproduce the first operation's digest reproduced its
// output exactly.
func digest(tables ...*parparaw.Table) string {
	h := sha256.New()
	var buf []byte
	for _, t := range tables {
		cols := make([]*parparaw.Column, t.NumColumns())
		types := make([]parparaw.Type, t.NumColumns())
		for c := range cols {
			cols[c] = t.Column(c)
			types[c] = cols[c].Type()
		}
		for r := 0; r < t.NumRows(); r++ {
			for c, col := range cols {
				if col.IsNull(r) {
					buf = append(buf, 0)
					continue
				}
				buf = append(buf, 1)
				switch types[c] {
				case parparaw.String:
					b := col.Bytes(r)
					buf = binary.AppendUvarint(buf, uint64(len(b)))
					buf = append(buf, b...)
				case parparaw.Float64:
					buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(col.Float64(r)))
				case parparaw.Bool:
					if col.Bool(r) {
						buf = append(buf, 1)
					} else {
						buf = append(buf, 0)
					}
				default:
					buf = binary.LittleEndian.AppendUint64(buf, uint64(col.Int64(r)))
				}
			}
			if len(buf) >= 1<<16 {
				h.Write(buf)
				buf = buf[:0]
			}
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}
