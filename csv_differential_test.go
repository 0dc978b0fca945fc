package parparaw

// RFC 4180 differential matrix: every CSV-family behavior is pinned
// against encoding/csv, the independently implemented reference. The
// matrix sweeps hostile constructs (blank lines, "" escapes at field
// start/middle/end, quoted delimiters and newlines, trailing
// delimiters, comment lines, CRLF vs LF endings, missing final
// newline) across dialect knobs (delimiter, comment, CRLF), all three
// tagging modes, chunk boundaries that cut through escapes, and the
// streaming pipeline at InFlight 1 and GOMAXPROCS with partitions
// small enough to split quoted regions.
//
// Where the two parsers intentionally disagree, the divergence is not
// papered over: TestCSVDocumentedDivergences asserts BOTH behaviors
// explicitly, so a change on either side of the contract fails a test.

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// ---------------------------------------------------------------------
// encoding/csv reference
// ---------------------------------------------------------------------

// Physical-line classification used to reconcile the one documented
// normalization between the parsers: encoding/csv silently skips fully
// blank lines, ParPaRaw keeps each as a one-field record [""].
const (
	lineRecord = iota
	lineBlank
	lineComment
)

// csvLineKinds classifies every physical line of in as a record, a
// blank line, or a comment line, with quote-awareness so a record
// delimiter inside an enclosed field does not count as a line break.
// '\r' under the CRLF dialect is a control symbol and contributes
// neither data nor a first-byte for comment detection, mirroring the
// machine's carriage-return row.
func csvLineKinds(in []byte, d CSV) []int {
	quote := d.Quote
	if quote == 0 {
		quote = '"'
	}
	var kinds []int
	inQuote, blank := false, true
	first, hasFirst := byte(0), false
	endLine := func() {
		k := lineRecord
		switch {
		case blank:
			k = lineBlank
		case d.Comment != 0 && hasFirst && first == d.Comment:
			k = lineComment
		}
		kinds = append(kinds, k)
		blank, hasFirst = true, false
	}
	for i := 0; i < len(in); i++ {
		c := in[i]
		switch {
		case inQuote:
			if c == quote {
				inQuote = false // "" escapes toggle twice: harmless here
			}
		case c == quote:
			inQuote = true
			blank = false
			if !hasFirst {
				first, hasFirst = c, true
			}
		case c == '\n':
			endLine()
		case c == '\r' && d.CRLF:
			// Control before the record delimiter: invisible.
		default:
			blank = false
			if !hasFirst {
				first, hasFirst = c, true
			}
		}
	}
	if !blank {
		endLine() // trailing record without a final newline
	}
	return kinds
}

// csvReference parses in with encoding/csv configured for dialect d and
// re-inserts the blank-line records encoding/csv drops, yielding the
// exact record sequence ParPaRaw produces. It must only be called on
// inputs encoding/csv accepts.
func csvReference(t *testing.T, in []byte, d CSV) [][]string {
	t.Helper()
	del := d.Delimiter
	if del == 0 {
		del = ','
	}
	r := csv.NewReader(bytes.NewReader(in))
	r.Comma = rune(del)
	if d.Comment != 0 {
		r.Comment = rune(d.Comment)
	}
	r.FieldsPerRecord = -1
	rows, err := r.ReadAll()
	if err != nil {
		t.Fatalf("encoding/csv rejected matrix input %q: %v", in, err)
	}
	var out [][]string
	next := 0
	for _, k := range csvLineKinds(in, d) {
		switch k {
		case lineBlank:
			out = append(out, []string{""})
		case lineComment:
			// No footprint on either side.
		default:
			if next >= len(rows) {
				t.Fatalf("reference skew: more record lines than encoding/csv rows for %q", in)
			}
			out = append(out, rows[next])
			next++
		}
	}
	if next != len(rows) {
		t.Fatalf("reference skew: encoding/csv yielded %d rows, line scan consumed %d for %q", len(rows), next, in)
	}
	return out
}

// ---------------------------------------------------------------------
// The agreement matrix
// ---------------------------------------------------------------------

// csvScenario renders one hostile construct for a concrete dialect.
// width is the constant column count after blank-line normalization
// (blank lines appear only in single-column scenarios so every tagging
// mode applies); ok is false when the construct needs a knob the
// dialect lacks.
type csvScenario struct {
	name   string
	render func(d CSV) (input string, width int, ok bool)
}

func csvScenarios() []csvScenario {
	meta := func(d CSV) (del string, nl string) {
		del = ","
		if d.Delimiter != 0 {
			del = string(d.Delimiter)
		}
		nl = "\n"
		if d.CRLF {
			nl = "\r\n"
		}
		return del, nl
	}
	return []csvScenario{
		{"plain", func(d CSV) (string, int, bool) {
			del, nl := meta(d)
			return strings.Join([]string{"a" + del + "b" + del + "c", "d" + del + "e" + del + "f", "g" + del + "h" + del + "i"}, nl) + nl, 3, true
		}},
		// "" escapes at field start, middle, and end; an enclosed field
		// holding the delimiter; an enclosed field holding a record
		// delimiter; a field that is a single quote character.
		{"quoted-escapes", func(d CSV) (string, int, bool) {
			del, nl := meta(d)
			rows := []string{
				`"q""q"` + del + `""` + del + `"a` + del + `b"`,
				`""""` + del + `"a` + "\n" + `b"` + del + `plain`,
				`"end"""` + del + `"""start"` + del + `"mi""d"`,
			}
			return strings.Join(rows, nl) + nl, 3, true
		}},
		// Leading, adjacent, and trailing delimiters: every present-but-
		// empty field must materialize as "" on both sides.
		{"empty-fields", func(d CSV) (string, int, bool) {
			del, nl := meta(d)
			rows := []string{del + "b" + del, "a" + del + del, del + del}
			return strings.Join(rows, nl) + nl, 3, true
		}},
		{"trailing-no-newline", func(d CSV) (string, int, bool) {
			del, nl := meta(d)
			return "a" + del + "b" + nl + "c" + del + "d", 2, true
		}},
		// Single column so the [""] records the blank lines become keep
		// the width constant and the fast tagging modes stay in play.
		{"blank-lines", func(d CSV) (string, int, bool) {
			_, nl := meta(d)
			return "a" + nl + nl + "b" + nl + nl + nl + "c" + nl, 1, true
		}},
		{"comment-lines", func(d CSV) (string, int, bool) {
			if d.Comment == 0 {
				return "", 0, false
			}
			del, nl := meta(d)
			cm := string(d.Comment)
			rows := []string{
				cm + "leading comment",
				"a" + del + "b",
				cm + "between records",
				"c" + cm + "d" + del + "e", // comment byte mid-field is data
				cm + "trailing, no newline",
			}
			return strings.Join(rows, nl), 2, true
		}},
		// Mixed CRLF and bare-LF record endings under the tolerant
		// dialect, including an enclosed bare LF that must stay data.
		{"mixed-endings", func(d CSV) (string, int, bool) {
			if !d.CRLF {
				return "", 0, false
			}
			del := ","
			if d.Delimiter != 0 {
				del = string(d.Delimiter)
			}
			return "a" + del + "b\r\nc" + del + "d\n" + `"x` + "\n" + `y"` + del + "z\r\n", 2, true
		}},
	}
}

// checkCSVRows compares a parse result against the reference rows with
// exact cell equality (the matrix keeps widths constant, so there is no
// missing-field ambiguity).
func checkCSVRows(t *testing.T, ctx string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: rows = %d, want %d\ngot  %q\nwant %q", ctx, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d = %q, want %q", ctx, i, got[i], want[i])
		}
	}
}

// TestCSVDifferentialMatrix is the RFC 4180 agreement matrix: hostile
// constructs × dialect knobs × three tagging modes × chunk sizes that
// cut escapes apart × whole-input and streamed execution with
// partitions small enough to split quoted regions, all pinned to
// encoding/csv via csvReference.
func TestCSVDifferentialMatrix(t *testing.T) {
	dialectCases := []struct {
		name string
		d    CSV
	}{
		{"default", CSV{}},
		{"semicolon", CSV{Delimiter: ';'}},
		{"comment", CSV{Comment: '#'}},
		{"crlf", CSV{CRLF: true}},
		{"comment-crlf", CSV{Comment: '#', CRLF: true}},
	}
	modes := []TaggingMode{RecordTagged, InlineTerminated, VectorDelimited}
	for _, dc := range dialectCases {
		format := NewCSV(dc.d)
		for _, sc := range csvScenarios() {
			input, width, ok := sc.render(dc.d)
			if !ok {
				continue
			}
			t.Run(dc.name+"/"+sc.name, func(t *testing.T) {
				want := refRowsFull(csvReference(t, []byte(input), dc.d))
				schema := allStringSchema(width)
				for _, mode := range modes {
					// ChunkSize 5 forces chunk boundaries inside ""
					// escapes and enclosed regions; 0 is the default.
					for _, chunk := range []int{0, 5} {
						ctx := fmt.Sprintf("%v/chunk=%d", mode, chunk)
						res, err := Parse([]byte(input), Options{
							Format: format, Schema: schema, Mode: mode, ChunkSize: chunk,
						})
						if err != nil {
							t.Fatalf("%s Parse: %v", ctx, err)
						}
						if res.Stats.InvalidInput {
							t.Fatalf("%s: InvalidInput on valid input %q", ctx, input)
						}
						checkCSVRows(t, ctx, tableRows(res.Table), want)
					}
					for _, inFlight := range []int{1, runtime.GOMAXPROCS(0)} {
						for _, psize := range []int{16, 96} {
							ctx := fmt.Sprintf("%v/InFlight=%d/psize=%d", mode, inFlight, psize)
							sr, err := Stream([]byte(input), StreamOptions{
								Options: Options{
									Format:   format,
									Schema:   schema,
									Mode:     mode,
									InFlight: inFlight,
								},
								StreamConfig: StreamConfig{PartitionSize: psize},
							})
							if err != nil {
								t.Fatalf("%s Stream: %v", ctx, err)
							}
							combined, err := sr.Combined()
							if err != nil {
								t.Fatalf("%s Combined: %v", ctx, err)
							}
							checkCSVRows(t, ctx, tableRows(combined), want)
						}
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------
// Documented divergences
// ---------------------------------------------------------------------

// parseCSVRows parses in under dialect d with a pinned all-String
// schema and returns the rendered rows plus the invalid-input flag.
func parseCSVRows(t *testing.T, in string, d CSV, width int, mode TaggingMode) ([]string, bool) {
	t.Helper()
	res, err := Parse([]byte(in), Options{Format: NewCSV(d), Schema: allStringSchema(width), Mode: mode})
	if err != nil {
		t.Fatalf("Parse(%q): %v", in, err)
	}
	return tableRows(res.Table), res.Stats.InvalidInput
}

// TestCSVDocumentedDivergences asserts both sides of every intentional
// disagreement with encoding/csv, so a behavior change in either
// contract is caught.
func TestCSVDocumentedDivergences(t *testing.T) {
	t.Run("blank-line-kept-vs-skipped", func(t *testing.T) {
		// encoding/csv silently skips a fully blank line; ParPaRaw keeps
		// it as a one-field record [""]. With multi-column neighbors the
		// kept record is ragged: RecordTagged pads the missing fields,
		// the inline and vector modes (which require a constant column
		// count) reject the input outright.
		const in = "a,b\n\nc,d\n"
		r := csv.NewReader(strings.NewReader(in))
		r.FieldsPerRecord = -1
		rows, err := r.ReadAll()
		if err != nil || len(rows) != 2 {
			t.Fatalf("encoding/csv = %v rows, err %v; want 2 skipping the blank line", len(rows), err)
		}
		res, err := Parse([]byte(in), Options{Schema: allStringSchema(2), Mode: RecordTagged})
		if err != nil {
			t.Fatalf("RecordTagged Parse: %v", err)
		}
		if res.Stats.InvalidInput {
			t.Fatal("RecordTagged: InvalidInput on a blank line")
		}
		if res.Table.NumRows() != 3 {
			t.Fatalf("RecordTagged rows = %d, want 3 (blank line kept)", res.Table.NumRows())
		}
		checkAgainstRef(t, "blank line kept", res.Table, [][]string{{"a", "b"}, {""}, {"c", "d"}})
		for _, mode := range []TaggingMode{InlineTerminated, VectorDelimited} {
			if _, err := Parse([]byte(in), Options{Schema: allStringSchema(2), Mode: mode}); err == nil {
				t.Fatalf("%v: ragged input (blank line among 2-column records) parsed without error", mode)
			}
		}
	})

	t.Run("bare-quote-sink-vs-error", func(t *testing.T) {
		// A quote inside an unenclosed field: encoding/csv fails the
		// whole read with ErrBareQuote; ParPaRaw enters the invalid sink
		// — records completed before the bad line survive, the rest of
		// the input is swallowed, and Stats.InvalidInput reports it.
		const in = "a,b\nx\"y,z\nc,d\n"
		r := csv.NewReader(strings.NewReader(in))
		r.FieldsPerRecord = -1
		if _, err := r.ReadAll(); !errors.Is(err, csv.ErrBareQuote) {
			t.Fatalf("encoding/csv err = %v, want ErrBareQuote", err)
		}
		rows, invalid := parseCSVRows(t, in, CSV{}, 2, RecordTagged)
		if !invalid {
			t.Fatal("InvalidInput = false, want true for a bare quote")
		}
		checkCSVRows(t, "bare quote", rows, []string{"a|b"})
	})

	t.Run("text-after-closing-quote-vs-error", func(t *testing.T) {
		// Data after the closing quote of an enclosed field:
		// encoding/csv fails with ErrQuote; ParPaRaw enters the sink
		// with the same keep-completed-records semantics.
		const in = "\"a\",b\n\"q\"x,y\n"
		r := csv.NewReader(strings.NewReader(in))
		r.FieldsPerRecord = -1
		if _, err := r.ReadAll(); !errors.Is(err, csv.ErrQuote) {
			t.Fatalf("encoding/csv err = %v, want ErrQuote", err)
		}
		rows, invalid := parseCSVRows(t, in, CSV{}, 2, RecordTagged)
		if !invalid {
			t.Fatal("InvalidInput = false, want true for text after a closing quote")
		}
		checkCSVRows(t, "text after quote", rows, []string{"a|b"})
	})

	t.Run("bare-cr-control-vs-data", func(t *testing.T) {
		// Under the CRLF dialect ParPaRaw treats '\r' outside quotes as
		// a control symbol everywhere, not only before '\n', so a bare
		// carriage return vanishes from the field value. encoding/csv
		// keeps it as data.
		const in = "a\rb,c\r\n"
		r := csv.NewReader(strings.NewReader(in))
		r.FieldsPerRecord = -1
		rows, err := r.ReadAll()
		if err != nil || len(rows) != 1 || rows[0][0] != "a\rb" {
			t.Fatalf("encoding/csv = %q, err %v; want field %q kept", rows, err, "a\rb")
		}
		got, invalid := parseCSVRows(t, in, CSV{CRLF: true}, 2, RecordTagged)
		if invalid {
			t.Fatal("InvalidInput = true, want false: bare '\\r' is control, not invalid")
		}
		checkCSVRows(t, "bare CR", got, []string{"ab|c"})
	})

	t.Run("crlf-in-quotes-raw-vs-normalized", func(t *testing.T) {
		// encoding/csv rewrites "\r\n" inside an enclosed field to
		// "\n"; ParPaRaw keeps the raw bytes (inside quotes every
		// symbol is data).
		const in = "\"a\r\nb\",c\r\n"
		r := csv.NewReader(strings.NewReader(in))
		r.FieldsPerRecord = -1
		rows, err := r.ReadAll()
		if err != nil || len(rows) != 1 || rows[0][0] != "a\nb" {
			t.Fatalf("encoding/csv = %q, err %v; want quoted CRLF normalized to %q", rows, err, "a\nb")
		}
		got, invalid := parseCSVRows(t, in, CSV{CRLF: true}, 2, RecordTagged)
		if invalid {
			t.Fatal("InvalidInput = true, want false")
		}
		checkCSVRows(t, "quoted CRLF", got, []string{"a\r\nb|c"})
	})

	t.Run("crlf-input-under-lf-dialect", func(t *testing.T) {
		// With CRLF disabled, '\r' is ordinary data for ParPaRaw, so
		// CRLF-terminated input grows a trailing '\r' on every last
		// field. encoding/csv always strips it.
		const in = "a,b\r\nc,d\r\n"
		r := csv.NewReader(strings.NewReader(in))
		r.FieldsPerRecord = -1
		rows, err := r.ReadAll()
		if err != nil || len(rows) != 2 || rows[0][1] != "b" {
			t.Fatalf("encoding/csv = %q, err %v; want '\\r' stripped", rows, err)
		}
		got, invalid := parseCSVRows(t, in, CSV{}, 2, RecordTagged)
		if invalid {
			t.Fatal("InvalidInput = true, want false: '\\r' is data under the LF dialect")
		}
		checkCSVRows(t, "LF dialect on CRLF input", got, []string{"a|b\r", "c|d\r"})
	})
}

// TestCSVQuoteKnob pins the Quote dialect knob, which encoding/csv
// cannot mirror (its quote is fixed): a single-quote dialect over the
// byte-substituted input must produce the byte-substituted table of the
// default dialect, escape unfolding included.
func TestCSVQuoteKnob(t *testing.T) {
	const dq = "\"q\"\"q\",plain\n\"a,b\",x\n"
	sq := strings.ReplaceAll(dq, `"`, `'`)
	for _, mode := range []TaggingMode{RecordTagged, InlineTerminated, VectorDelimited} {
		def, invalid := parseCSVRows(t, dq, CSV{}, 2, mode)
		if invalid {
			t.Fatalf("%v: InvalidInput on default-quote input", mode)
		}
		got, invalid := parseCSVRows(t, sq, CSV{Quote: '\''}, 2, mode)
		if invalid {
			t.Fatalf("%v: InvalidInput on single-quote input", mode)
		}
		want := make([]string, len(def))
		for i, row := range def {
			want[i] = strings.ReplaceAll(row, `"`, `'`)
		}
		checkCSVRows(t, fmt.Sprintf("%v quote knob", mode), got, want)
	}
}
