package core

import (
	"encoding/csv"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/columnar"
	"repro/internal/convert"
	"repro/internal/css"
	"repro/internal/device"
	"repro/internal/dfa"
	"repro/internal/statevec"
)

func testOpts() Options {
	return Options{Device: device.New(device.Config{Workers: 4}), ChunkSize: 7}
}

// tableStrings renders every cell of a table as a string for comparison.
func tableStrings(t *columnar.Table) [][]string {
	out := make([][]string, t.NumRows())
	for r := range out {
		row := make([]string, t.NumColumns())
		for c := 0; c < t.NumColumns(); c++ {
			row[c] = t.Column(c).ValueString(r)
		}
		out[r] = row
	}
	return out
}

func TestParseSimpleCSV(t *testing.T) {
	in := "1941,199.99,Bookcase\n1938,19.99,Frame\n"
	res, err := Parse([]byte(in), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.Table
	if tbl.NumRows() != 2 || tbl.NumColumns() != 3 {
		t.Fatalf("shape = %dx%d", tbl.NumRows(), tbl.NumColumns())
	}
	// Types are inferred: int64, float64, string.
	if tbl.Schema().Fields[0].Type != columnar.Int64 {
		t.Errorf("col0 type = %v", tbl.Schema().Fields[0].Type)
	}
	if tbl.Schema().Fields[1].Type != columnar.Float64 {
		t.Errorf("col1 type = %v", tbl.Schema().Fields[1].Type)
	}
	if tbl.Schema().Fields[2].Type != columnar.String {
		t.Errorf("col2 type = %v", tbl.Schema().Fields[2].Type)
	}
	if tbl.Column(0).Int64Value(1) != 1938 {
		t.Error("int value wrong")
	}
	if tbl.Column(1).Float64Value(0) != 199.99 {
		t.Error("float value wrong")
	}
	if string(tbl.Column(2).StringValue(0)) != "Bookcase" {
		t.Error("string value wrong")
	}
	if res.Stats.MinColumns != 3 || res.Stats.MaxColumns != 3 {
		t.Errorf("min/max columns = %d/%d", res.Stats.MinColumns, res.Stats.MaxColumns)
	}
}

// TestParsePaperExample parses the Figure 3/4/5 running example,
// including the quoted field with escaped quotes and an embedded record
// delimiter.
func TestParsePaperExample(t *testing.T) {
	in := "1941,199.99,\"Bookcase\"\n1938,19.99,\"Frame\n\"\"Ribba\"\", black\"\n"
	for _, mode := range []css.Mode{css.RecordTagged, css.InlineTerminated, css.VectorDelimited} {
		opts := testOpts()
		opts.Mode = mode
		res, err := Parse([]byte(in), opts)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		tbl := res.Table
		if tbl.NumRows() != 2 || tbl.NumColumns() != 3 {
			t.Fatalf("%v: shape = %dx%d", mode, tbl.NumRows(), tbl.NumColumns())
		}
		if got := string(tbl.Column(2).StringValue(0)); got != "Bookcase" {
			t.Errorf("%v: row0 col2 = %q", mode, got)
		}
		want := "Frame\n\"Ribba\", black"
		if got := string(tbl.Column(2).StringValue(1)); got != want {
			t.Errorf("%v: row1 col2 = %q, want %q", mode, got, want)
		}
		if tbl.Column(0).Int64Value(0) != 1941 || tbl.Column(0).Int64Value(1) != 1938 {
			t.Errorf("%v: col0 values wrong", mode)
		}
	}
}

// referenceParse parses with encoding/csv for cross-checking. The one
// documented divergence is normalised centrally here instead of being
// dodged by every generator: encoding/csv silently skips fully blank
// lines, while ParPaRaw keeps each as a one-field record ("" — pinned
// by TestParseEmptyLinesAreSingleFieldRecords). A quote-aware scan
// locates the blank lines and re-inserts their records in order, so
// callers may feed inputs containing them freely.
func referenceParse(t *testing.T, in string) [][]string {
	t.Helper()
	r := csv.NewReader(strings.NewReader(in))
	r.FieldsPerRecord = -1
	rows, err := r.ReadAll()
	if err != nil {
		t.Fatalf("reference parser rejected input: %v", err)
	}
	// blanks[i] reports whether ParPaRaw's record i is a blank line.
	var blanks []bool
	inQuote, empty := false, true
	for i := 0; i < len(in); i++ {
		switch {
		case in[i] == '"':
			inQuote = !inQuote // "" toggles twice: harmless
			empty = false
		case in[i] == '\n' && !inQuote:
			blanks = append(blanks, empty)
			empty = true
		default:
			empty = false
		}
	}
	if !empty { // trailing record without a newline
		blanks = append(blanks, false)
	}
	out := make([][]string, 0, len(blanks))
	next := 0
	for _, blank := range blanks {
		switch {
		case blank:
			out = append(out, []string{""})
		case next < len(rows):
			out = append(out, rows[next])
			next++
		}
	}
	return append(out, rows[next:]...)
}

// TestParseMatchesEncodingCSV fuzzes RFC 4180 inputs and demands cell-level
// agreement with the standard library's CSV reader, for every tagging
// mode and several chunk sizes.
func TestParseMatchesEncodingCSV(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	gen := func(records, cols int, quoted bool) string {
		var sb strings.Builder
		for r := 0; r < records; r++ {
			// Blank lines ride along when they keep the column count
			// constant (the fast tagging modes reject ragged input);
			// referenceParse normalises encoding/csv's skipping of them.
			if cols == 1 && rng.Intn(6) == 0 {
				sb.WriteByte('\n')
				continue
			}
			for c := 0; c < cols; c++ {
				if c > 0 {
					sb.WriteByte(',')
				}
				if c == 0 && cols > 1 && rng.Intn(4) == 0 {
					// empty leading field: the line is not blank, the
					// commas keep it visible to encoding/csv
					continue
				}
				if quoted && rng.Intn(2) == 0 {
					sb.WriteByte('"')
					for k := rng.Intn(8); k > 0; k-- {
						switch rng.Intn(5) {
						case 0:
							sb.WriteString(`""`)
						case 1:
							sb.WriteByte(',')
						case 2:
							sb.WriteByte('\n')
						default:
							sb.WriteByte(byte('a' + rng.Intn(26)))
						}
					}
					sb.WriteByte('"')
				} else {
					for k := rng.Intn(8); k > 0; k-- {
						sb.WriteByte(byte('a' + rng.Intn(26)))
					}
				}
			}
			sb.WriteByte('\n')
		}
		return sb.String()
	}

	for trial := 0; trial < 25; trial++ {
		records := 1 + rng.Intn(20)
		cols := 1 + rng.Intn(5)
		quoted := trial%2 == 0
		in := gen(records, cols, quoted)
		want := referenceParse(t, in)

		modes := []css.Mode{css.RecordTagged, css.VectorDelimited, css.InlineTerminated}
		for _, mode := range modes {
			for _, chunkSize := range []int{3, 31, 1 << 20} {
				opts := testOpts()
				opts.Mode = mode
				opts.ChunkSize = chunkSize
				// Force string columns so cells compare textually.
				fields := make([]columnar.Field, cols)
				for i := range fields {
					fields[i] = columnar.Field{Name: fmt.Sprintf("c%d", i), Type: columnar.String}
				}
				opts.Schema = columnar.NewSchema(fields...)
				res, err := Parse([]byte(in), opts)
				if err != nil {
					t.Fatalf("mode=%v chunk=%d: %v\ninput: %q", mode, chunkSize, err, in)
				}
				got := tableStrings(res.Table)
				if len(got) != len(want) {
					t.Fatalf("mode=%v chunk=%d: %d rows, want %d\ninput: %q", mode, chunkSize, len(got), len(want), in)
				}
				for r := range want {
					for c := range want[r] {
						if got[r][c] != want[r][c] {
							t.Fatalf("mode=%v chunk=%d cell (%d,%d) = %q, want %q\ninput: %q",
								mode, chunkSize, r, c, got[r][c], want[r][c], in)
						}
					}
				}
			}
		}
	}
}

func TestParseTrailingRecordWithoutNewline(t *testing.T) {
	for _, mode := range []css.Mode{css.RecordTagged, css.InlineTerminated, css.VectorDelimited} {
		opts := testOpts()
		opts.Mode = mode
		res, err := Parse([]byte("a,b\nc,d"), opts)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Table.NumRows() != 2 {
			t.Fatalf("%v: rows = %d", mode, res.Table.NumRows())
		}
		if got := string(res.Table.Column(1).StringValue(1)); got != "d" {
			t.Errorf("%v: trailing cell = %q", mode, got)
		}
	}
}

func TestParseTrailingEmptyLastField(t *testing.T) {
	for _, mode := range []css.Mode{css.RecordTagged, css.InlineTerminated, css.VectorDelimited} {
		opts := testOpts()
		opts.Mode = mode
		res, err := Parse([]byte("a,b\nc,"), opts)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Table.NumRows() != 2 {
			t.Fatalf("%v: rows = %d", mode, res.Table.NumRows())
		}
		if got := string(res.Table.Column(1).StringValue(1)); got != "" {
			t.Errorf("%v: empty trailing cell = %q", mode, got)
		}
	}
}

// TestParseEmptyInput: an input without a record parses to an empty
// table. No record fixes the inferred column count, so any selection is
// in range, and the table has the selected width.
func TestParseEmptyInput(t *testing.T) {
	for _, c := range []struct {
		name   string
		input  string
		header bool
		sel    []int
		names  []string
	}{
		{"empty", "", false, nil, nil},
		{"empty-select", "", false, []int{2, 0}, []string{"col2", "col0"}},
		{"header-only-select", "a,b,c\n", true, []int{2, 0}, []string{"c", "a"}},
	} {
		opts := testOpts()
		opts.HasHeader = c.header
		opts.SelectColumns = c.sel
		res, err := Parse([]byte(c.input), opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Table.NumRows() != 0 || res.Table.NumColumns() != len(c.names) {
			t.Errorf("%s: %dx%d, want 0x%d", c.name, res.Table.NumRows(), res.Table.NumColumns(), len(c.names))
			continue
		}
		for i, name := range c.names {
			if got := res.Table.Schema().Fields[i].Name; got != name {
				t.Errorf("%s: column %d named %q, want %q", c.name, i, got, name)
			}
		}
	}
}

func TestParseHeader(t *testing.T) {
	opts := testOpts()
	opts.HasHeader = true
	res, err := Parse([]byte("id,\"price, usd\",name\n1,2.5,chair\n"), opts)
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"id", "price, usd", "name"}
	for i, w := range wantNames {
		if res.Header[i] != w {
			t.Errorf("header[%d] = %q, want %q", i, res.Header[i], w)
		}
		if res.Table.Schema().Fields[i].Name != w {
			t.Errorf("field name[%d] = %q", i, res.Table.Schema().Fields[i].Name)
		}
	}
	if res.Table.NumRows() != 1 {
		t.Errorf("rows = %d", res.Table.NumRows())
	}
}

func TestParseSkipRows(t *testing.T) {
	opts := testOpts()
	opts.SkipRows = 2
	res, err := Parse([]byte("garbage line\nanother\n1,2\n3,4\n"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 2 {
		t.Fatalf("rows = %d", res.Table.NumRows())
	}
	if res.Table.Column(0).Int64Value(0) != 1 {
		t.Error("first data row wrong after SkipRows")
	}
}

func TestParseSelectColumns(t *testing.T) {
	opts := testOpts()
	opts.SelectColumns = []int{2, 0}
	res, err := Parse([]byte("1,2,3\n4,5,6\n"), opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.Table
	if tbl.NumColumns() != 2 {
		t.Fatalf("columns = %d", tbl.NumColumns())
	}
	if tbl.Column(0).Int64Value(0) != 3 || tbl.Column(1).Int64Value(0) != 1 {
		t.Errorf("projection wrong: %s %s", tbl.Column(0).ValueString(0), tbl.Column(1).ValueString(0))
	}
	if tbl.Schema().Fields[0].Name != "col2" {
		t.Errorf("projected name = %q", tbl.Schema().Fields[0].Name)
	}
}

func TestParseSkipRecords(t *testing.T) {
	opts := testOpts()
	opts.SkipRecords = []int64{1, 3}
	res, err := Parse([]byte("a0\na1\na2\na3\na4\n"), opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.Table
	if tbl.NumRows() != 3 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	want := []string{"a0", "a2", "a4"}
	for r, w := range want {
		if got := string(tbl.Column(0).StringValue(r)); got != w {
			t.Errorf("row %d = %q, want %q", r, got, w)
		}
	}
}

func TestParseRaggedRecordTagged(t *testing.T) {
	// The §4.1 resilience example: records with varying field counts.
	opts := testOpts()
	res, err := Parse([]byte("1,Apples\n2\n"), opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.Table
	if tbl.NumRows() != 2 || tbl.NumColumns() != 2 {
		t.Fatalf("shape = %dx%d", tbl.NumRows(), tbl.NumColumns())
	}
	if !tbl.Column(1).IsNull(1) && string(tbl.Column(1).StringValue(1)) != "" {
		t.Error("missing field must be empty/NULL")
	}
	if res.Stats.MinColumns != 1 || res.Stats.MaxColumns != 2 {
		t.Errorf("min/max = %d/%d", res.Stats.MinColumns, res.Stats.MaxColumns)
	}
}

func TestParseRaggedRejectedByFastModes(t *testing.T) {
	for _, mode := range []css.Mode{css.InlineTerminated, css.VectorDelimited} {
		opts := testOpts()
		opts.Mode = mode
		if _, err := Parse([]byte("1,2\n3\n"), opts); err == nil {
			t.Errorf("%v: ragged input must be an error", mode)
		}
	}
}

func TestParseRejectInconsistent(t *testing.T) {
	opts := testOpts()
	opts.RejectInconsistent = true
	opts.ExpectedColumns = 2
	res, err := Parse([]byte("1,2\n3\n4,5\n6,7,8\n"), opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.Table
	wantReject := []bool{false, true, false, true}
	for r, w := range wantReject {
		if tbl.Rejected(r) != w {
			t.Errorf("record %d rejected = %v, want %v", r, tbl.Rejected(r), w)
		}
	}
	if tbl.RejectedCount() != 2 {
		t.Errorf("rejected count = %d", tbl.RejectedCount())
	}
}

func TestParseRejectInconsistentTrailing(t *testing.T) {
	opts := testOpts()
	opts.RejectInconsistent = true
	opts.ExpectedColumns = 2
	res, err := Parse([]byte("1,2\n3,4,5"), opts) // trailing record has 3 cols
	if err != nil {
		t.Fatal(err)
	}
	if !res.Table.Rejected(1) || res.Table.Rejected(0) {
		t.Error("trailing inconsistent record not rejected")
	}
}

func TestParseRejectMalformed(t *testing.T) {
	opts := testOpts()
	opts.RejectMalformed = true
	opts.Schema = columnar.NewSchema(
		columnar.Field{Name: "n", Type: columnar.Int64},
	)
	res, err := Parse([]byte("1\nnope\n3\n"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Table.Rejected(1) || res.Table.Rejected(0) || res.Table.Rejected(2) {
		t.Error("malformed record not rejected")
	}
}

func TestParseDefaultValues(t *testing.T) {
	opts := testOpts()
	opts.Schema = columnar.NewSchema(
		columnar.Field{Name: "a", Type: columnar.Int64},
		columnar.Field{Name: "b", Type: columnar.Int64},
	)
	opts.DefaultValues = map[int]string{1: "99"}
	res, err := Parse([]byte("1,\n2,3\n"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.Column(1).IsNull(0) || res.Table.Column(1).Int64Value(0) != 99 {
		t.Error("default value not applied")
	}
}

func TestParseValidate(t *testing.T) {
	opts := testOpts()
	opts.Validate = true
	if _, err := Parse([]byte("\"unterminated quote"), opts); err == nil {
		t.Error("want validation error for unterminated quote")
	}
	opts.Validate = false
	res, err := Parse([]byte("\"unterminated quote"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.InvalidInput {
		t.Error("InvalidInput must be flagged")
	}
}

func TestParseCommentsMachine(t *testing.T) {
	opts := testOpts()
	opts.Machine = dfa.NewCSV(dfa.CSVOptions{Comment: '#'})
	in := "# directive, with, commas\n1,2\n# another\n3,4\n"
	res, err := Parse([]byte(in), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 2 {
		t.Fatalf("rows = %d (comment lines must vanish)", res.Table.NumRows())
	}
	if res.Table.Column(0).Int64Value(1) != 3 {
		t.Error("values wrong with comments")
	}
}

func TestParseEmptyLinesAreSingleFieldRecords(t *testing.T) {
	res, err := Parse([]byte("a\n\nb\n"), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3 (empty line is a one-field record)", res.Table.NumRows())
	}
}

func TestParseSchemaTypes(t *testing.T) {
	opts := testOpts()
	opts.Schema = columnar.NewSchema(
		columnar.Field{Name: "when", Type: columnar.Date32},
		columnar.Field{Name: "ok", Type: columnar.Bool},
		columnar.Field{Name: "ts", Type: columnar.TimestampMicros},
	)
	res, err := Parse([]byte("1970-01-02,true,1970-01-01 00:00:01\n"), opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.Table
	if tbl.Column(0).Int64Value(0) != 1 || !tbl.Column(1).BoolValue(0) || tbl.Column(2).Int64Value(0) != 1e6 {
		t.Error("typed values wrong")
	}
}

func TestParseStatsPhases(t *testing.T) {
	res, err := Parse([]byte("a,b\nc,d\n"), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range PhaseNames {
		if _, ok := res.Stats.Phases[p]; !ok {
			t.Errorf("phase %q missing from stats", p)
		}
	}
	if res.Stats.Duration <= 0 {
		t.Error("duration not recorded")
	}
	if res.Stats.Chunks <= 0 || res.Stats.InputBytes != 8 {
		t.Errorf("stats = %+v", res.Stats)
	}
}

func TestParseOptionErrors(t *testing.T) {
	bad := testOpts()
	bad.SelectColumns = []int{5}
	if _, err := Parse([]byte("a,b\n"), bad); err == nil {
		t.Error("want error for out-of-range column selection")
	}
	dup := testOpts()
	dup.SelectColumns = []int{0, 0}
	if _, err := Parse([]byte("a,b\n"), dup); err == nil {
		t.Error("want error for duplicate column selection")
	}
	unsorted := testOpts()
	unsorted.SkipRecords = []int64{3, 1}
	if _, err := Parse([]byte("a\nb\nc\nd\n"), unsorted); err == nil {
		t.Error("want error for unsorted SkipRecords")
	}
}

// TestParseChunkSizeInvariance: results must be identical for any chunk
// size — the core §3.1 guarantee — and equal to encoding/csv's. The
// input is over 64 KiB, so every size runs many chunks, and its enclosed
// fields hold ',', '\n' and '""' at varied offsets, some long enough to
// span whole bitmap words and 1 KiB chunks. The sizes straddle the
// 64-byte bitmap word and the 1 KiB default (0).
func TestParseChunkSizeInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const cols = 4
	var sb strings.Builder
	for sb.Len() < 64<<10+1000 {
		for c := 0; c < cols; c++ {
			if c > 0 {
				sb.WriteByte(',')
			}
			n := rng.Intn(12)
			if rng.Intn(20) == 0 {
				n = 64 + rng.Intn(1500)
			}
			enclosed := rng.Intn(2) == 0
			if enclosed {
				sb.WriteByte('"')
			}
			for k := 0; k < n; k++ {
				switch r := rng.Intn(12); {
				case enclosed && r == 0:
					sb.WriteString(`""`)
				case enclosed && r == 1:
					sb.WriteByte(',')
				case enclosed && r == 2:
					sb.WriteByte('\n')
				default:
					sb.WriteByte(byte('a' + rng.Intn(26)))
				}
			}
			if enclosed {
				sb.WriteByte('"')
			}
		}
		sb.WriteByte('\n')
	}
	in := sb.String()
	want := fmt.Sprint(referenceParse(t, in))
	fields := make([]columnar.Field, cols)
	for i := range fields {
		fields[i] = columnar.Field{Name: fmt.Sprintf("c%d", i), Type: columnar.String}
	}
	for _, chunk := range []int{1, 7, 31, 63, 64, 65, 127, 128, 1023, 1024, 1025, 4096, 0} {
		opts := testOpts()
		opts.ChunkSize = chunk
		opts.Schema = columnar.NewSchema(fields...)
		res, err := Parse([]byte(in), opts)
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		size := chunk
		if size == 0 {
			size = DefaultChunkSize
		}
		if want := (len(in) + size - 1) / size; res.Stats.Chunks != want {
			t.Errorf("chunk=%d: %d chunks, want %d", chunk, res.Stats.Chunks, want)
		}
		if got := fmt.Sprint(tableStrings(res.Table)); got != want {
			t.Fatalf("chunk=%d: table differs from encoding/csv's", chunk)
		}
	}
}

// TestParseDefaultChunkSizeByDevice: ChunkSize 0 means the paper's
// 31-byte chunk on a modelled-time device, which stands in for the
// paper's GPU, and DefaultChunkSize on a real one. The modelled device
// also keeps the paper's two parse walks, so its emit launch walks every
// chunk again. The real one guesses every start state right: its ten
// chunks form one launch block that starts at the input's start, and
// each guess follows the previous chunk's exact lane.
func TestParseDefaultChunkSizeByDevice(t *testing.T) {
	in := []byte(strings.Repeat("1941,199.99,\"Book,case\"\n", 400))
	n := len(in)
	for _, tc := range []struct {
		name    string
		dev     *device.Device
		chunk   int
		twoPass bool
	}{
		{"real", device.New(device.Config{Workers: 4}), DefaultChunkSize, false},
		{"modelled", device.New(device.Config{Workers: 2, VirtualWorkers: 64}), PaperChunkSize, true},
	} {
		res, err := Parse(in, Options{Device: tc.dev})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if want := (n + tc.chunk - 1) / tc.chunk; res.Stats.Chunks != want {
			t.Errorf("%s: %d chunks for %d bytes, want %d (chunk %d)", tc.name, res.Stats.Chunks, n, want, tc.chunk)
		}
		want := 0
		if tc.twoPass {
			want = res.Stats.Chunks
		}
		if res.Stats.ReemittedChunks != want {
			t.Errorf("%s: re-emitted %d of %d chunks, want %d", tc.name, res.Stats.ReemittedChunks, res.Stats.Chunks, want)
		}
	}
}

// TestParseWorkerInvariance: results must be identical for any worker
// count, in modelled time too, and equal to encoding/csv's. The input
// spans more than three start-state scan tiles at ChunkSize 7, and an
// enclosed field holding ',' and '\n' straddles every tile boundary, so
// a tile that started in the wrong state would split records there.
// Types are inferred, so every device also runs the int and float
// convert kernels and must infer the same schema.
func TestParseWorkerInvariance(t *testing.T) {
	const chunkSize = 7
	tileBytes := statevec.TileChunks * chunkSize
	var sb strings.Builder
	for b := 1; b <= 3; b++ {
		for sb.Len() < b*tileBytes-40 {
			sb.WriteString("q,\"w,e\",17,2.5\n")
		}
		sb.WriteString("z,\"")
		for sb.Len() < b*tileBytes+20 {
			sb.WriteString("a,\nb")
		}
		sb.WriteString("\",1,0.5\n")
	}
	for sb.Len() < 3*tileBytes+tileBytes/2 {
		sb.WriteString("q,\"w,e\",17,2.5\n")
	}
	in := sb.String()
	want := referenceParse(t, in)
	wantTypes := []columnar.Type{columnar.String, columnar.String, columnar.Int64, columnar.Float64}
	devices := map[string]*device.Device{
		"workers=1": device.New(device.Config{Workers: 1}),
		"workers=2": device.New(device.Config{Workers: 2}),
		"workers=8": device.New(device.Config{Workers: 8}),
		"modelled":  device.New(device.Config{Workers: 2, VirtualWorkers: 64}),
	}
	for name, d := range devices {
		opts := testOpts()
		opts.Device = d
		opts.ChunkSize = chunkSize
		res, err := Parse([]byte(in), opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fields := res.Table.Schema().Fields
		if len(fields) != len(wantTypes) {
			t.Fatalf("%s: %d columns, want %d", name, len(fields), len(wantTypes))
		}
		for i, f := range fields {
			if f.Type != wantTypes[i] {
				t.Errorf("%s: column %d inferred as %v, want %v", name, i, f.Type, wantTypes[i])
			}
		}
		if res.Stats.Chunks <= 3*statevec.TileChunks {
			t.Fatalf("%s: %d chunks do not span three scan tiles", name, res.Stats.Chunks)
		}
		if got := tableStrings(res.Table); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: %d rows differ from encoding/csv's %d", name, len(got), len(want))
		}
	}
}

func TestParseTrailingRemainder(t *testing.T) {
	opts := testOpts()
	opts.Trailing = TrailingRemainder
	res, err := Parse([]byte("a,b\nc,d\ne,f"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2 (tail excluded)", res.Table.NumRows())
	}
	if res.Remainder != 3 {
		t.Errorf("remainder = %d, want 3", res.Remainder)
	}
	// Quoted record delimiter inside the tail must not end the record.
	res, err = Parse([]byte("a,b\nc,\"d\ne"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 1 || res.Remainder != 6 {
		t.Errorf("quoted tail: rows=%d remainder=%d, want 1/6", res.Table.NumRows(), res.Remainder)
	}
	// No record delimiter at all: everything is remainder.
	res, err = Parse([]byte("abc"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 0 || res.Remainder != 3 {
		t.Errorf("no-delimiter: rows=%d remainder=%d", res.Table.NumRows(), res.Remainder)
	}
}

func TestParseTrailingRemainderInlineMode(t *testing.T) {
	opts := testOpts()
	opts.Trailing = TrailingRemainder
	opts.Mode = css.InlineTerminated
	res, err := Parse([]byte("a,b\nc,d\ne,"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 2 || res.Remainder != 2 {
		t.Errorf("rows=%d remainder=%d, want 2/2", res.Table.NumRows(), res.Remainder)
	}
	if got := string(res.Table.Column(1).StringValue(1)); got != "d" {
		t.Errorf("cell = %q", got)
	}
}

// TestArenaPhaseAccounting checks that every explicit kernel stage
// draws device memory through the run's arena and appears in the
// per-stage high-water accounting.
func TestArenaPhaseAccounting(t *testing.T) {
	arena := device.NewArena()
	opts := testOpts()
	opts.Arena = arena
	// A Where predicate makes the optional filterRows stage draw arena
	// memory too, so the loop below can insist on every stage.
	opts.Where = []convert.Predicate{{Column: 0, Op: convert.PredNotNull}}
	input := strings.Repeat("12,\"a,b\",3.5\n", 200)
	res, err := Parse([]byte(input), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DeviceBytes != arena.PeakBytes() {
		t.Errorf("DeviceBytes = %d, arena peak = %d", res.Stats.DeviceBytes, arena.PeakBytes())
	}
	for _, stage := range KernelStageNames() {
		if arena.PhasePeak(stage) == 0 {
			t.Errorf("stage %q has no arena footprint recorded", stage)
		}
	}
}
