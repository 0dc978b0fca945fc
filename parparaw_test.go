package parparaw

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

const ordersCSV = "id,item,qty,price,when\n" +
	"1,\"widget, large\",3,9.99,2018-01-02 10:30:00\n" +
	"2,sprocket,10,0.25,2018-01-03 11:00:00\n" +
	"3,\"gear \"\"XL\"\"\",1,45.00,2018-01-04 12:15:00\n"

func TestParseQuickstart(t *testing.T) {
	res, err := Parse([]byte(ordersCSV), Options{HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.Table
	if tbl.NumRows() != 3 || tbl.NumColumns() != 5 {
		t.Fatalf("shape = %dx%d, want 3x5", tbl.NumRows(), tbl.NumColumns())
	}
	if got := res.Header; strings.Join(got, ",") != "id,item,qty,price,when" {
		t.Errorf("header = %v", got)
	}
	item := tbl.ColumnByName("item")
	if item == nil {
		t.Fatal("item column missing")
	}
	if got := item.StringValue(0); got != "widget, large" {
		t.Errorf("row 0 item = %q (quoted delimiter mishandled)", got)
	}
	if got := item.StringValue(2); got != `gear "XL"` {
		t.Errorf("row 2 item = %q (escaped quote mishandled)", got)
	}
	qty := tbl.ColumnByName("qty")
	if qty.Type() != Int64 || qty.Int64(1) != 10 {
		t.Errorf("qty type=%v value=%d", qty.Type(), qty.Int64(1))
	}
	price := tbl.ColumnByName("price")
	if price.Type() != Float64 || price.Float64(1) != 0.25 {
		t.Errorf("price type=%v value=%v", price.Type(), price.Float64(1))
	}
	when := tbl.ColumnByName("when")
	if when.Type() != TimestampMicros {
		t.Fatalf("when type = %v", when.Type())
	}
	want := time.Date(2018, 1, 2, 10, 30, 0, 0, time.UTC)
	if got := when.Time(0); !got.Equal(want) {
		t.Errorf("when(0) = %v, want %v", got, want)
	}
}

func TestParseWithSchema(t *testing.T) {
	schema := NewSchema(
		Field{Name: "a", Type: Int64},
		Field{Name: "b", Type: String},
	)
	res, err := Parse([]byte("1,x\n2,y\n"), Options{Schema: schema})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Table.Schema().String(); got != schema.String() {
		t.Errorf("schema = %s, want %s", got, schema.String())
	}
	if res.Stats.Records != 2 || res.Stats.Columns != 2 {
		t.Errorf("stats = %+v", res.Stats)
	}
	if res.Stats.Throughput() <= 0 {
		t.Error("throughput not positive")
	}
}

func TestParseSelectColumns(t *testing.T) {
	res, err := Parse([]byte("1,2,3\n4,5,6\n"), Options{SelectColumns: []int{2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumColumns() != 2 {
		t.Fatalf("columns = %d", res.Table.NumColumns())
	}
	if res.Table.Column(0).Int64(0) != 3 || res.Table.Column(1).Int64(0) != 1 {
		t.Errorf("selection order wrong: %s,%s",
			res.Table.Column(0).ValueString(0), res.Table.Column(1).ValueString(0))
	}
}

func TestParseValidateRejectsBadInput(t *testing.T) {
	_, err := Parse([]byte("ab\"cd\n"), Options{Validate: true})
	if err == nil {
		t.Fatal("want validation error")
	}
	res, err := Parse([]byte("ab\"cd\n"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.InvalidInput {
		t.Error("InvalidInput not flagged")
	}
}

func TestParseCustomCSVDialect(t *testing.T) {
	f := NewCSV(CSV{Delimiter: ';', Comment: '#'})
	res, err := Parse([]byte("# generated by tool\n1;2\n3;4\n"), Options{Format: f})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2 (comment skipped)", res.Table.NumRows())
	}
	if res.Table.Column(1).Int64(1) != 4 {
		t.Errorf("value = %s", res.Table.Column(1).ValueString(1))
	}
}

func TestFormatBuilderCustomFormat(t *testing.T) {
	// Tab-separated format without quoting: 2 states, 2 groups.
	fb := NewFormatBuilder()
	rec := fb.State("REC", true, false)
	fld := fb.State("FLD", true, true)
	tab := fb.Group('\t')
	nl := fb.Group('\n')
	star := fb.CatchAll()
	fb.On(tab, rec, rec, FieldDelim)
	fb.On(tab, fld, rec, FieldDelim)
	fb.On(nl, rec, rec, RecordDelim)
	fb.On(nl, fld, rec, RecordDelim)
	fb.On(star, rec, fld, Data)
	fb.On(star, fld, fld, Data)
	f, err := fb.Build(rec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Parse([]byte("a\tb\nc\td\n"), Options{Format: f})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 2 || res.Table.NumColumns() != 2 {
		t.Fatalf("shape = %dx%d", res.Table.NumRows(), res.Table.NumColumns())
	}
	if got := res.Table.Column(1).StringValue(1); got != "d" {
		t.Errorf("value = %q", got)
	}
}

func TestFormatValidate(t *testing.T) {
	f := DefaultFormat()
	if err := f.Validate([]byte("a,b\n\"c,d\"\n")); err != nil {
		t.Errorf("valid input rejected: %v", err)
	}
	if err := f.Validate([]byte("a\"b\n")); err == nil {
		t.Error("invalid input accepted")
	}
	if f.NumStates() != 6 {
		t.Errorf("states = %d, want 6", f.NumStates())
	}
}

func TestStreamMatchesParse(t *testing.T) {
	var sb bytes.Buffer
	for i := 0; i < 500; i++ {
		sb.WriteString("12,\"text, with delims\n inside\",3.5\n")
	}
	input := sb.Bytes()

	whole, err := Parse(input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := Stream(input, StreamOptions{
		StreamConfig: StreamConfig{PartitionSize: 1024},
	})
	if err != nil {
		t.Fatal(err)
	}
	if streamed.NumRows() != whole.Table.NumRows() {
		t.Fatalf("stream rows = %d, parse rows = %d", streamed.NumRows(), whole.Table.NumRows())
	}
	combined, err := streamed.Combined()
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < whole.Table.NumRows(); r++ {
		for c := 0; c < whole.Table.NumColumns(); c++ {
			w := whole.Table.Column(c).ValueString(r)
			g := combined.Column(c).ValueString(r)
			if w != g {
				t.Fatalf("row %d col %d: %q vs %q", r, c, g, w)
			}
		}
	}
	if streamed.Stats.Partitions < 2 {
		t.Errorf("partitions = %d, want several", streamed.Stats.Partitions)
	}
	if streamed.Stats.MaxCarryOver == 0 {
		t.Error("no carry-over observed despite mid-record partition boundaries")
	}
}

func TestStreamWithHeaderAndInference(t *testing.T) {
	var sb bytes.Buffer
	sb.WriteString("x,y\n")
	for i := 0; i < 200; i++ {
		sb.WriteString("1,2.5\n")
	}
	res, err := Stream(sb.Bytes(), StreamOptions{
		Options:      Options{HasHeader: true},
		StreamConfig: StreamConfig{PartitionSize: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(res.Header, ",") != "x,y" {
		t.Errorf("header = %v", res.Header)
	}
	if res.NumRows() != 200 {
		t.Errorf("rows = %d", res.NumRows())
	}
	// The schema inferred from partition 0 must hold for all partitions.
	for i, tbl := range res.Tables {
		if tbl.NumColumns() != 2 {
			t.Fatalf("partition %d columns = %d", i, tbl.NumColumns())
		}
		if got := tbl.Column(1).Type(); got != Float64 {
			t.Errorf("partition %d col 1 type = %v, want float64", i, got)
		}
	}
}

func TestParseReader(t *testing.T) {
	res, err := ParseReader(strings.NewReader("7,8\n9,10\n"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 2 {
		t.Errorf("rows = %d", res.Table.NumRows())
	}
}

func TestParseWorkersOption(t *testing.T) {
	input := []byte(strings.Repeat("5,6,seven\n", 4000))
	for _, w := range []int{1, 2, 8} {
		res, err := Parse(input, Options{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if res.Table.NumRows() != 4000 {
			t.Errorf("workers=%d rows = %d", w, res.Table.NumRows())
		}
	}
}

func TestTaggingModesAgree(t *testing.T) {
	input := []byte(strings.Repeat("a,1,2.5\nbb,2,3.5\n", 300))
	var ref *Result
	for _, mode := range []TaggingMode{RecordTagged, InlineTerminated, VectorDelimited} {
		res, err := Parse(input, Options{Mode: mode})
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Table.NumRows() != ref.Table.NumRows() {
			t.Fatalf("mode %d rows differ", mode)
		}
		for r := 0; r < ref.Table.NumRows(); r++ {
			for c := 0; c < ref.Table.NumColumns(); c++ {
				if ref.Table.Column(c).ValueString(r) != res.Table.Column(c).ValueString(r) {
					t.Fatalf("mode %d row %d col %d differs", mode, r, c)
				}
			}
		}
	}
}

func TestTypeRoundTrip(t *testing.T) {
	for _, typ := range []Type{String, Int64, Float64, Bool, Date32, TimestampMicros} {
		if got := typeFromInternal(typ.internal()); got != typ {
			t.Errorf("round trip %v -> %v", typ, got)
		}
	}
}

func TestRejectInconsistent(t *testing.T) {
	res, err := Parse([]byte("1,2\n3\n4,5\n"), Options{ExpectedColumns: 2, RejectInconsistent: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.RejectedCount() != 1 || !res.Table.Rejected(1) {
		t.Errorf("rejected = %d (record 1 rejected: %v)", res.Table.RejectedCount(), res.Table.Rejected(1))
	}
}

func TestDefaultValues(t *testing.T) {
	res, err := Parse([]byte("1,\n2,5\n"), Options{
		Schema:        NewSchema(Field{Name: "a", Type: Int64}, Field{Name: "b", Type: Int64}),
		DefaultValues: map[int]string{1: "42"},
	})
	if err != nil {
		t.Fatal(err)
	}
	b := res.Table.Column(1)
	if b.IsNull(0) || b.Int64(0) != 42 {
		t.Errorf("default not applied: null=%v v=%d", b.IsNull(0), b.Int64(0))
	}
	if b.Int64(1) != 5 {
		t.Errorf("non-empty field overwritten: %d", b.Int64(1))
	}
}

func encodeUTF16LE(s string, bom bool) []byte {
	var out []byte
	if bom {
		out = append(out, 0xFF, 0xFE)
	}
	for _, r := range s {
		if r < 0x10000 {
			out = append(out, byte(r), byte(r>>8))
		} else {
			r -= 0x10000
			hi := 0xD800 + (r >> 10)
			lo := 0xDC00 + (r & 0x3FF)
			out = append(out, byte(hi), byte(hi>>8), byte(lo), byte(lo>>8))
		}
	}
	return out
}

func TestParseUTF16Input(t *testing.T) {
	text := "id,city\n1,Zürich\n2,北京\n3,🚕ville\n"
	res, err := Parse(encodeUTF16LE(text, false), Options{Encoding: UTF16LE, HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", res.Table.NumRows())
	}
	city := res.Table.ColumnByName("city")
	want := []string{"Zürich", "北京", "🚕ville"}
	for i, w := range want {
		if got := city.StringValue(i); got != w {
			t.Errorf("row %d = %q, want %q", i, got, w)
		}
	}
	if res.Stats.Phases["transcode"] <= 0 {
		t.Error("transcode phase not recorded")
	}
}

func TestParseDetectEncodingBOM(t *testing.T) {
	text := "a,b\n1,2\n"
	res, err := Parse(encodeUTF16LE(text, true), Options{DetectEncoding: true, HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 1 {
		t.Fatalf("rows = %d, want 1", res.Table.NumRows())
	}
	if res.Table.Column(1).Int64(0) != 2 {
		t.Errorf("value = %s", res.Table.Column(1).ValueString(0))
	}
	// UTF-8 BOM is stripped too: without stripping, the first header
	// name would carry the BOM bytes.
	res, err = Parse(append([]byte{0xEF, 0xBB, 0xBF}, text...), Options{DetectEncoding: true, HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Header[0] != "a" {
		t.Errorf("header[0] = %q (BOM not stripped?)", res.Header[0])
	}
}

func TestParseUTF8ContentAcrossChunks(t *testing.T) {
	// Multi-byte UTF-8 content with a tiny chunk size: code points
	// straddle chunk boundaries constantly; output must be intact.
	var sb strings.Builder
	sb.WriteString("k,v\n")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "%d,\"héllo wörld 東京 🚀 %d\"\n", i, i)
	}
	res, err := Parse([]byte(sb.String()), Options{HasHeader: true, ChunkSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	v := res.Table.ColumnByName("v")
	for i := 0; i < res.Table.NumRows(); i++ {
		want := fmt.Sprintf("héllo wörld 東京 🚀 %d", i)
		if got := v.StringValue(i); got != want {
			t.Fatalf("row %d = %q, want %q", i, got, want)
		}
	}
}
