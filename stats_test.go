package parparaw

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// counterInput is a fixed-schema CSV of n records with quoted fields
// (embedded delimiters and record delimiters), so structural bytes and
// partition-straddling records are both exercised. A non-empty tail is
// appended unterminated.
func counterInput(header bool, n int, tail string) []byte {
	var b strings.Builder
	if header {
		b.WriteString("id,name,amount\n")
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("n%d", i)
		switch i % 3 {
		case 1:
			name = fmt.Sprintf("\"q, %d\"", i)
		case 2:
			name = fmt.Sprintf("\"multi\nline %d\"", i)
		}
		fmt.Fprintf(&b, "%d,%s,%d.5\n", i, name, i)
	}
	b.WriteString(tail)
	return []byte(b.String())
}

// TestCounterDifferential: a streamed run counts what a whole-input
// parse of the same bytes counts. Its Stats are its partitions' Stats
// folded with Add, so every carried byte, pruned row and column count
// must be counted once, whatever the partition size. With an inferred
// schema the whole-input parse prunes Where's rows after
// materialisation while the stream's later partitions push the
// predicate down, and BytesSkipped must still agree.
func TestCounterDifferential(t *testing.T) {
	fixed := NewSchema(Field{Name: "id", Type: Int64}, Field{Name: "name", Type: String}, Field{Name: "amount", Type: Float64})
	const records = 300
	wheres := []struct {
		name  string
		where []Predicate
	}{
		{"all-rows", nil},
		{"half-pruned", []Predicate{IntRange(0, 0, records/2-1)}},
		{"all-pruned", []Predicate{Eq(1, "no such name")}},
	}
	inputs := []struct {
		name string
		tail string
	}{
		{"terminated", ""},
		{"open-quote", "300,\"open,1.5"},
	}
	for _, schema := range []*Schema{fixed, nil} {
		for _, header := range []bool{false, true} {
			for _, in := range inputs {
				input := counterInput(header, records, in.tail)
				for _, w := range wheres {
					for _, sel := range [][]int{nil, {2, 0}} {
						opts := Options{Schema: schema, HasHeader: header}
						opts.Scan.Where = w.where
						opts.Scan.Select = sel
						name := fmt.Sprintf("inferred=%v/header=%v/%s/%s/select=%v", schema == nil, header, in.name, w.name, sel)
						checkCounterParity(t, name, opts, input)
					}
				}
			}
		}
	}
}

func checkCounterParity(t *testing.T, name string, opts Options, input []byte) {
	t.Helper()
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defer e.Close()
	want, err := e.Parse(input)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	if want.Stats.Records != int64(want.Table.NumRows()) {
		t.Fatalf("%s: parse counts %d records for %d rows", name, want.Stats.Records, want.Table.NumRows())
	}
	for _, size := range []int{7, 97, 1021, 4096, len(input)} {
		res, err := e.StreamReader(bytes.NewReader(input), StreamConfig{PartitionSize: size})
		if err != nil {
			t.Fatalf("%s: partition=%d: %v", name, size, err)
		}
		got := res.Stats
		if got.Records != int64(res.NumRows()) {
			t.Errorf("%s: partition=%d: Records %d, emitted rows %d", name, size, got.Records, res.NumRows())
		}
		w := want.Stats
		if got.Records != w.Records || got.MinColumns != w.MinColumns || got.MaxColumns != w.MaxColumns ||
			got.RowsPruned != w.RowsPruned || got.BytesSkipped != w.BytesSkipped || got.InvalidInput != w.InvalidInput {
			t.Errorf("%s: partition=%d: streamed records %d, columns %d..%d, pruned %d, skipped %d, invalid %v;"+
				" parse %d, %d..%d, %d, %d, %v", name, size,
				got.Records, got.MinColumns, got.MaxColumns, got.RowsPruned, got.BytesSkipped, got.InvalidInput,
				w.Records, w.MinColumns, w.MaxColumns, w.RowsPruned, w.BytesSkipped, w.InvalidInput)
		}
	}
}
