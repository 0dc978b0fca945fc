package parparaw

// Cross-grammar oracles for the dialect layer: every new grammar
// (JSONL, escaped TSV/PSV, weblog) is pinned against an independent
// hand-written reference scanner — plain Go control flow, no shared
// code with internal/dfa — across the three tagging modes and the
// streaming pipeline, and fuzzed against the same references (plus
// encoding/json for JSONL) with the fast-path variants composed in.
//
// Reference semantics mirrored from the kernels (internal/core):
//   - a record-delimiter emission ends the current record, a
//     field-delimiter emission ends the current field;
//   - input ending in a mid-record state flushes one trailing record;
//     if that state is non-accepting the input is also invalid;
//   - entering the invalid sink keeps completed records, drops the
//     record in progress, and swallows the rest of the input;
//   - in String columns, present-but-empty fields materialise as ""
//     (never NULL); fields missing from ragged records may be NULL.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// ---------------------------------------------------------------------
// Reference scanners
// ---------------------------------------------------------------------

// refJSONL is the independent JSON-Lines reference: one top-level
// object per line, keys/values as alternating fields, quotes stripped,
// escapes raw, nested containers opaque up to maxDepth. Returns the
// records and whether the input is invalid under the grammar.
func refJSONL(in []byte, maxDepth int) ([][]string, bool) {
	const (
		jSOL  = iota // start of line
		jOBJ         // inside the top-level object
		jSTR         // inside a top-level string
		jESC         // after a backslash in a top-level string
		jEND         // after the closing brace
		jNEST        // inside a nested container (depth tracked)
		jNSTR        // inside a nested string
		jNESC        // after a backslash in a nested string
		jINV         // invalid sink
	)
	st, depth := jSOL, 0
	var recs [][]string
	var rec []string
	var cur []byte
	data := func(c byte) { cur = append(cur, c) }
	endField := func() { rec = append(rec, string(cur)); cur = nil }
	endRec := func() { endField(); recs = append(recs, rec); rec = nil }
	fail := func() { st, rec, cur = jINV, nil, nil }
	for _, c := range in {
		switch st {
		case jSOL:
			switch c {
			case '\n', ' ', '\t', '\r': // blank lines and padding vanish
			case '{':
				st = jOBJ
			default:
				fail()
			}
		case jOBJ:
			switch c {
			case '\n', ']':
				fail()
			case '{', '[':
				if maxDepth < 2 {
					fail()
				} else {
					st, depth = jNEST, 2
					data(c)
				}
			case '}':
				st = jEND
			case '"':
				st = jSTR
			case ':', ',':
				endField()
			case ' ', '\t', '\r': // depth-1 whitespace is control
			default:
				data(c) // bare tokens are tolerated
			}
		case jSTR:
			switch c {
			case '\n':
				fail()
			case '"':
				st = jOBJ
			case '\\':
				st = jESC
				data(c) // escapes stay raw in the field value
			default:
				data(c)
			}
		case jESC:
			if c == '\n' {
				fail()
			} else {
				st = jSTR
				data(c)
			}
		case jEND:
			switch c {
			case '\n':
				endRec()
				st = jSOL
			case ' ', '\t', '\r':
			default:
				fail()
			}
		case jNEST:
			switch c {
			case '\n':
				fail()
			case '{', '[':
				if depth+1 > maxDepth {
					fail()
				} else {
					depth++
					data(c)
				}
			case '}', ']':
				data(c)
				if depth == 2 {
					st, depth = jOBJ, 0
				} else {
					depth--
				}
			case '"':
				st = jNSTR
				data(c)
			default:
				data(c)
			}
		case jNSTR:
			switch c {
			case '\n':
				fail()
			case '"':
				st = jNEST
				data(c)
			case '\\':
				st = jNESC
				data(c)
			default:
				data(c)
			}
		case jNESC:
			if c == '\n' {
				fail()
			} else {
				st = jNSTR
				data(c)
			}
		case jINV:
		}
	}
	switch st {
	case jINV:
		return recs, true
	case jSOL:
		return recs, false
	default:
		endRec()
		return recs, st != jEND // jEND is the only accepting mid-record end
	}
}

// refTSV is the independent backslash-escape reference: the escape
// introducer is dropped and the next byte kept literal, comment lines
// vanish, and with CRLF the record delimiter is a strict "\r\n" (bare
// '\r' or '\n' is invalid).
func refTSV(in []byte, o TSV) ([][]string, bool) {
	fd, ec := o.Delimiter, o.Escape
	if fd == 0 {
		fd = '\t'
	}
	if ec == 0 {
		ec = '\\'
	}
	cm, crlf := o.Comment, o.CRLF
	const (
		tEOR = iota // just consumed a record delimiter
		tFLD        // mid-record
		tESC        // after the escape introducer
		tCR         // consumed '\r' of "\r\n" (CRLF only)
		tCMT        // inside a comment line
		tCMC        // consumed '\r' inside a comment line (CRLF only)
		tINV        // invalid sink (CRLF only)
	)
	st := tEOR
	var recs [][]string
	var rec []string
	var cur []byte
	data := func(c byte) { cur = append(cur, c) }
	endField := func() { rec = append(rec, string(cur)); cur = nil }
	endRec := func() { endField(); recs = append(recs, rec); rec = nil }
	fail := func() { st, rec, cur = tINV, nil, nil }
	for _, c := range in {
		switch st {
		case tEOR, tFLD:
			switch {
			case c == '\n':
				if crlf {
					fail()
				} else {
					endRec()
					st = tEOR
				}
			case c == '\r' && crlf:
				st = tCR
			case c == fd:
				endField()
				st = tFLD
			case c == ec:
				st = tESC
			case cm != 0 && c == cm && st == tEOR:
				st = tCMT
			default:
				data(c) // '\r' in the LF form is an ordinary data byte
				st = tFLD
			}
		case tESC:
			data(c) // whatever it is: delimiter, newline, the escape itself
			st = tFLD
		case tCR:
			if c == '\n' {
				endRec()
				st = tEOR
			} else {
				fail()
			}
		case tCMT:
			switch {
			case c == '\n':
				if crlf {
					fail()
				} else {
					st = tEOR
				}
			case c == '\r' && crlf:
				st = tCMC
			default: // comment text (and '\r' in the LF form) is control
			}
		case tCMC:
			if c == '\n' {
				st = tEOR
			} else {
				fail()
			}
		case tINV:
		}
	}
	switch st {
	case tINV:
		return recs, true
	case tEOR, tCMT, tCMC:
		return recs, false
	default:
		endRec()
		return recs, st != tFLD // dangling escape / truncated "\r\n"
	}
}

// refWeblog is the independent Extended-Log-Format reference: space-
// delimited fields, '#' directive lines and blank/all-space lines
// vanish, quotes enclose a field only when opened at field start and
// are stripped, backslash escapes inside quotes unfold, '\r' outside
// quotes is control.
func refWeblog(in []byte) ([][]string, bool) {
	const (
		wEOR = iota // record start
		wEOF        // just consumed a field delimiter
		wFLD        // inside an unquoted field / after a closing quote
		wSTR        // inside a quoted field
		wESC        // after a backslash inside a quoted field
		wDIR        // inside a directive line
	)
	st := wEOR
	var recs [][]string
	var rec []string
	var cur []byte
	data := func(c byte) { cur = append(cur, c) }
	endField := func() { rec = append(rec, string(cur)); cur = nil }
	endRec := func() { endField(); recs = append(recs, rec); rec = nil }
	for _, c := range in {
		switch st {
		case wEOR:
			switch c {
			case '\n', ' ', '\r': // blank lines, leading spaces vanish
			case '"':
				st = wSTR
			case '#':
				st = wDIR
			default:
				data(c)
				st = wFLD
			}
		case wEOF:
			switch c {
			case '\n':
				endRec()
				st = wEOR
			case ' ':
				endField() // consecutive spaces make empty fields
			case '"':
				st = wSTR
			case '\r':
			default:
				data(c)
				st = wFLD
			}
		case wFLD:
			switch c {
			case '\n':
				endRec()
				st = wEOR
			case ' ':
				endField()
				st = wEOF
			case '\r':
			default:
				data(c) // '"', '\\', '#' are plain data mid-field
			}
		case wSTR:
			switch c {
			case '"':
				st = wFLD
			case '\\':
				st = wESC // introducer dropped: escapes unfold
			default:
				data(c) // newlines, spaces, '\r' are data inside quotes
			}
		case wESC:
			data(c)
			st = wSTR
		case wDIR:
			if c == '\n' {
				st = wEOR
			}
		}
	}
	switch st {
	case wEOR, wDIR:
		return recs, false
	default:
		endRec()
		return recs, st == wSTR || st == wESC // truncated quoted field
	}
}

// ---------------------------------------------------------------------
// Comparison helpers
// ---------------------------------------------------------------------

func allStringSchema(n int) *Schema {
	fields := make([]Field, n)
	for i := range fields {
		fields[i] = Field{Name: fmt.Sprintf("c%d", i), Type: String}
	}
	return NewSchema(fields...)
}

func refWidth(recs [][]string) int {
	w := 0
	for _, r := range recs {
		if len(r) > w {
			w = len(r)
		}
	}
	return w
}

// checkAgainstRef compares a parsed table cell-by-cell with the
// reference records. Present fields must match exactly (String columns
// keep empty fields as "", never NULL); fields missing from ragged
// records may surface as either NULL or "".
func checkAgainstRef(t *testing.T, ctx string, tbl *Table, recs [][]string) {
	t.Helper()
	if tbl.NumRows() != len(recs) {
		t.Fatalf("%s: rows = %d, want %d", ctx, tbl.NumRows(), len(recs))
	}
	for r, rec := range recs {
		for c := 0; c < tbl.NumColumns(); c++ {
			col := tbl.Column(c)
			if c < len(rec) {
				if col.IsNull(r) || col.ValueString(r) != rec[c] {
					t.Fatalf("%s: row %d col %d = %q (null=%v), want %q",
						ctx, r, c, col.ValueString(r), col.IsNull(r), rec[c])
				}
			} else if !col.IsNull(r) && col.ValueString(r) != "" {
				t.Fatalf("%s: row %d col %d = %q, want missing",
					ctx, r, c, col.ValueString(r))
			}
		}
	}
}

// refRowsFull renders constant-width reference records in the
// tableRows "|"-joined form.
func refRowsFull(recs [][]string) []string {
	rows := make([]string, len(recs))
	for i, r := range recs {
		rows[i] = strings.Join(r, "|")
	}
	return rows
}

// ---------------------------------------------------------------------
// Input generators (constant column count, valid by construction)
// ---------------------------------------------------------------------

// genJSONL emits records objects of pairs key/value pairs each (a
// constant 2*pairs columns): numbers, strings with raw escapes, bare
// tokens, nested containers to depth 4, depth-1 whitespace, blank
// lines, and "\r\n" endings.
func genJSONL(rng *rand.Rand, records, pairs int) []byte {
	var b bytes.Buffer
	pad := func() {
		if rng.Intn(3) == 0 {
			b.WriteString([]string{" ", "  ", "\t"}[rng.Intn(3)])
		}
	}
	str := func() string {
		var sb strings.Builder
		n := rng.Intn(8)
		for i := 0; i < n; i++ {
			switch rng.Intn(8) {
			case 0:
				sb.WriteString(`\"`)
			case 1:
				sb.WriteString(`\\`)
			case 2:
				sb.WriteByte(" ,:{}[]"[rng.Intn(7)])
			default:
				sb.WriteByte(byte('a' + rng.Intn(26)))
			}
		}
		return sb.String()
	}
	var nested func(depth int) string
	nested = func(depth int) string {
		open, close := "{", "}"
		if rng.Intn(2) == 0 {
			open, close = "[", "]"
		}
		var sb strings.Builder
		sb.WriteString(open)
		n := rng.Intn(3)
		for i := 0; i < n; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			if depth < 4 && rng.Intn(3) == 0 {
				sb.WriteString(nested(depth + 1))
			} else {
				switch rng.Intn(3) {
				case 0:
					sb.WriteString(strconv.Itoa(rng.Intn(100)))
				case 1:
					sb.WriteString(`"` + str() + `"`)
				default:
					sb.WriteString("null")
				}
			}
		}
		sb.WriteString(close)
		return sb.String()
	}
	value := func() string {
		switch rng.Intn(6) {
		case 0:
			return strconv.Itoa(rng.Intn(2000) - 1000)
		case 1:
			return `"` + str() + `"`
		case 2:
			return nested(2)
		case 3:
			return []string{"true", "false", "null"}[rng.Intn(3)]
		case 4:
			return []string{"3.25", "-0.5", "1e3"}[rng.Intn(3)]
		default: // bare token leniency
			return string(byte('a'+rng.Intn(26))) + strconv.Itoa(rng.Intn(10))
		}
	}
	for r := 0; r < records; r++ {
		if rng.Intn(5) == 0 {
			b.WriteByte('\n') // blank line
		}
		pad()
		b.WriteByte('{')
		for p := 0; p < pairs; p++ {
			if p > 0 {
				b.WriteByte(',')
				pad()
			}
			pad()
			fmt.Fprintf(&b, `"k%d"`, p)
			pad()
			b.WriteByte(':')
			pad()
			b.WriteString(value())
		}
		pad()
		b.WriteByte('}')
		pad()
		if rng.Intn(4) == 0 {
			b.WriteByte('\r')
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// genEscaped emits records rows of cols fields under the given TSV
// dialect: plain tokens, empty fields, escaped delimiters / newlines /
// escapes / comment bytes, and interleaved comment lines.
func genEscaped(rng *rand.Rand, records, cols int, o TSV) []byte {
	fd, ec := o.Delimiter, o.Escape
	if fd == 0 {
		fd = '\t'
	}
	if ec == 0 {
		ec = '\\'
	}
	eol := "\n"
	if o.CRLF {
		eol = "\r\n"
	}
	var b bytes.Buffer
	field := func(first bool) {
		n := rng.Intn(7)
		if first && n == 0 {
			n = 1 // a raw comment byte may not lead a record
		}
		for i := 0; i < n; i++ {
			switch rng.Intn(8) {
			case 0: // escaped field delimiter
				b.WriteByte(ec)
				b.WriteByte(fd)
			case 1: // escaped newline (legal even in the strict CRLF form)
				b.WriteByte(ec)
				b.WriteByte('\n')
			case 2: // escaped escape
				b.WriteByte(ec)
				b.WriteByte(ec)
			case 3:
				if o.Comment != 0 && (!first || i > 0) {
					b.WriteByte(o.Comment)
				} else {
					b.WriteByte(ec)
					b.WriteByte(o.Comment | 'x') // escape it at record start
				}
			default:
				b.WriteByte(byte('a' + rng.Intn(26)))
			}
		}
	}
	for r := 0; r < records; r++ {
		if o.Comment != 0 && rng.Intn(5) == 0 {
			b.WriteByte(o.Comment)
			b.WriteString(" interleaved comment")
			b.WriteString(eol)
		}
		for c := 0; c < cols; c++ {
			if c > 0 {
				b.WriteByte(fd)
			}
			field(c == 0)
		}
		b.WriteString(eol)
	}
	return b.Bytes()
}

// genWeblog emits records rows of cols space-delimited fields: plain
// tokens, quoted values with spaces and unfolding escapes, empty
// mid-record fields, directive lines, blank and all-space lines, and
// CRLF endings.
func genWeblog(rng *rand.Rand, records, cols int) []byte {
	var b bytes.Buffer
	plain := func() string {
		n := 1 + rng.Intn(6)
		var sb strings.Builder
		sb.WriteByte(byte('a' + rng.Intn(26))) // not ' ', '"', '#'
		for i := 1; i < n; i++ {
			sb.WriteByte("abcdefgh0123456789/:-.\"#"[rng.Intn(24)])
		}
		return sb.String()
	}
	quoted := func() string {
		var sb strings.Builder
		sb.WriteByte('"')
		n := rng.Intn(8)
		for i := 0; i < n; i++ {
			switch rng.Intn(8) {
			case 0:
				sb.WriteString(`\"`)
			case 1:
				sb.WriteString(`\\`)
			case 2:
				sb.WriteByte(' ')
			default:
				sb.WriteByte(byte('a' + rng.Intn(26)))
			}
		}
		sb.WriteByte('"')
		return sb.String()
	}
	for r := 0; r < records; r++ {
		switch rng.Intn(6) {
		case 0:
			b.WriteString("#Software: gen\r\n")
		case 1:
			b.WriteString("\n")
		case 2:
			b.WriteString("   \n")
		}
		for c := 0; c < cols; c++ {
			if c > 0 {
				b.WriteByte(' ')
			}
			switch {
			case rng.Intn(3) == 0:
				b.WriteString(quoted())
			case c > 0 && rng.Intn(6) == 0:
				// empty field: nothing between two delimiters
			default:
				b.WriteString(plain())
			}
		}
		if rng.Intn(3) == 0 {
			b.WriteByte('\r')
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// ---------------------------------------------------------------------
// Deterministic parity: 3 tagging modes × whole-input and streaming
// ---------------------------------------------------------------------

// TestGrammarParityModesAndStreaming generates constant-column inputs
// for every new grammar and requires byte-identical tables from all
// three tagging modes, whole-input and streamed at InFlight 1 and
// GOMAXPROCS, against the hand-written references.
func TestGrammarParityModesAndStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	psv := TSV{Delimiter: '|', Comment: '#', CRLF: true}
	tsv := TSV{Comment: '#'}
	jsonlIn := genJSONL(rng, 50, 3)
	tsvIn := genEscaped(rng, 60, 4, tsv)
	psvIn := genEscaped(rng, 60, 4, psv)
	weblogIn := genWeblog(rng, 60, 5)

	jsonlFmt, err := NewJSONL(JSONL{})
	if err != nil {
		t.Fatal(err)
	}
	tsvFmt, err := NewTSV(tsv)
	if err != nil {
		t.Fatal(err)
	}
	psvFmt, err := NewTSV(psv)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		format *Format
		input  []byte
		recs   [][]string
		inval  bool
	}{
		{"jsonl", jsonlFmt, jsonlIn, nil, false},
		{"tsv", tsvFmt, tsvIn, nil, false},
		{"psv-crlf", psvFmt, psvIn, nil, false},
		{"weblog", NewWeblog(), weblogIn, nil, false},
	}
	cases[0].recs, cases[0].inval = refJSONL(jsonlIn, 4)
	cases[1].recs, cases[1].inval = refTSV(tsvIn, tsv)
	cases[2].recs, cases[2].inval = refTSV(psvIn, psv)
	cases[3].recs, cases[3].inval = refWeblog(weblogIn)

	modes := []TaggingMode{RecordTagged, InlineTerminated, VectorDelimited}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.inval {
				t.Fatalf("generator emitted invalid input: %q", tc.input)
			}
			width := refWidth(tc.recs)
			for _, rec := range tc.recs {
				if len(rec) != width {
					t.Fatalf("generator emitted ragged records (%d vs %d fields)", len(rec), width)
				}
			}
			want := refRowsFull(tc.recs)
			schema := allStringSchema(width)
			for _, mode := range modes {
				res, err := Parse(tc.input, Options{Format: tc.format, Schema: schema, Mode: mode})
				if err != nil {
					t.Fatalf("%v Parse: %v", mode, err)
				}
				if res.Stats.InvalidInput {
					t.Fatalf("%v: InvalidInput on valid input", mode)
				}
				got := tableRows(res.Table)
				if len(got) != len(want) {
					t.Fatalf("%v: rows = %d, want %d", mode, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%v: row %d = %q, want %q", mode, i, got[i], want[i])
					}
				}
				for _, inFlight := range []int{1, runtime.GOMAXPROCS(0)} {
					sr, err := Stream(tc.input, StreamOptions{
						Options: Options{
							Format:   tc.format,
							Schema:   schema,
							Mode:     mode,
							InFlight: inFlight,
						},
						StreamConfig: StreamConfig{PartitionSize: 96},
					})
					if err != nil {
						t.Fatalf("%v/InFlight=%d Stream: %v", mode, inFlight, err)
					}
					combined, err := sr.Combined()
					if err != nil {
						t.Fatalf("%v/InFlight=%d Combined: %v", mode, inFlight, err)
					}
					got := tableRows(combined)
					if len(got) != len(want) {
						t.Fatalf("%v/InFlight=%d: rows = %d, want %d", mode, inFlight, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%v/InFlight=%d: row %d = %q, want %q", mode, inFlight, i, got[i], want[i])
						}
					}
				}
			}
		})
	}
}

// TestGrammarReferenceSemantics pins the invalid/trailing edge cases of
// each grammar end-to-end: records kept before the invalid sink, the
// trailing record of a mid-record end, and the invalid-input flag.
func TestGrammarReferenceSemantics(t *testing.T) {
	jsonlFmt, err := NewJSONL(JSONL{})
	if err != nil {
		t.Fatal(err)
	}
	tsvFmt, err := NewTSV(TSV{Comment: '#'})
	if err != nil {
		t.Fatal(err)
	}
	psvFmt, err := NewTSV(TSV{Delimiter: '|', Comment: '#', CRLF: true})
	if err != nil {
		t.Fatal(err)
	}
	ref := map[string]func([]byte) ([][]string, bool){
		"jsonl":  func(in []byte) ([][]string, bool) { return refJSONL(in, 4) },
		"tsv":    func(in []byte) ([][]string, bool) { return refTSV(in, TSV{Comment: '#'}) },
		"psv":    func(in []byte) ([][]string, bool) { return refTSV(in, TSV{Delimiter: '|', Comment: '#', CRLF: true}) },
		"weblog": refWeblog,
	}
	formats := map[string]*Format{
		"jsonl": jsonlFmt, "tsv": tsvFmt, "psv": psvFmt, "weblog": NewWeblog(),
	}
	cases := []struct {
		grammar string
		in      string
	}{
		{"jsonl", "{\"a\":1}\n"},
		{"jsonl", "{\"a\":1}"},                         // trailing record, still valid
		{"jsonl", `{"a":"x\"y","n":{"b":[1]}}` + "\n"}, // raw escape, opaque nesting
		{"jsonl", "{\"a\":1}\n[0]\n{\"b\":2}\n"},       // sink keeps the completed record
		{"jsonl", `{"open":"oops`},                     // EOF in string: trailing + invalid
		{"jsonl", `{"a":[[[[1]]]]}` + "\n"},            // depth 5 exceeds MaxDepth
		{"tsv", "a\tb\nc\n"},                           // ragged but valid
		{"tsv", "x\\"},                                 // dangling escape: trailing + invalid
		{"tsv", "#only a comment"},                     // truncated comment tolerated
		{"tsv", "a\\\tb\tc\n\t\n"},                     // unfolded delimiter, empty fields
		{"psv", "a|b\r\nc\\|d\r\n"},
		{"psv", "a\nb\r\n"}, // bare LF: sink drops the open record
		{"psv", "a\r"},      // truncated delimiter: trailing + invalid
		{"weblog", "#Fields: a b\nx \"y z\" w\n"},
		{"weblog", `a "unterminated`}, // trailing + invalid
		{"weblog", "a  b\n   \n"},     // empty mid-record field, all-space line
	}
	for _, tc := range cases {
		recs, invalid := ref[tc.grammar]([]byte(tc.in))
		opts := Options{Format: formats[tc.grammar]}
		if w := refWidth(recs); w > 0 {
			opts.Schema = allStringSchema(w)
		}
		res, err := Parse([]byte(tc.in), opts)
		if err != nil {
			t.Fatalf("%s %q: %v", tc.grammar, tc.in, err)
		}
		if res.Stats.InvalidInput != invalid {
			t.Errorf("%s %q: InvalidInput = %v, want %v", tc.grammar, tc.in, res.Stats.InvalidInput, invalid)
		}
		checkAgainstRef(t, fmt.Sprintf("%s %q", tc.grammar, tc.in), res.Table, recs)
	}
}

// ---------------------------------------------------------------------
// Dialect registry, header inference, streamability
// ---------------------------------------------------------------------

func TestDialectRegistry(t *testing.T) {
	ds := Dialects()
	var names []string
	for _, d := range ds {
		names = append(names, d.Name)
		if d.Description == "" {
			t.Errorf("%s: empty description", d.Name)
		}
		f := d.New()
		if f == nil || f.NumStates() == 0 {
			t.Fatalf("%s: New() returned an empty format", d.Name)
		}
		if !f.Streamable() {
			t.Errorf("%s: built-in dialect must be streamable", d.Name)
		}
	}
	if got, want := strings.Join(names, " "), "csv jsonl psv tsv weblog"; got != want {
		t.Fatalf("Dialects() = %q, want %q", got, want)
	}
	kinds := map[string]string{
		"csv": "csv", "tsv": "escaped", "psv": "escaped",
		"jsonl": "jsonl", "weblog": "weblog",
	}
	for name, kind := range kinds {
		f, err := FormatByName(name)
		if err != nil {
			t.Fatalf("FormatByName(%q): %v", name, err)
		}
		if f.Kind() != kind {
			t.Errorf("FormatByName(%q).Kind() = %q, want %q", name, f.Kind(), kind)
		}
	}
	if _, ok := DialectByName("WebLog"); !ok {
		t.Error("DialectByName must be case-insensitive")
	}
	if _, ok := DialectByName("xml"); ok {
		t.Error("DialectByName(\"xml\") must miss")
	}
	if _, err := FormatByName("xml"); err == nil || !strings.Contains(err.Error(), "csv, jsonl, psv, tsv, weblog") {
		t.Errorf("FormatByName(\"xml\") error must list the dialects, got %v", err)
	}
}

func TestJSONLHeaderNaming(t *testing.T) {
	jsonlFmt, err := NewJSONL(JSONL{})
	if err != nil {
		t.Fatal(err)
	}
	input := []byte(`{"id":1,"name":"ada"}` + "\n" + `{"id":2,"name":"bob"}` + "\n")
	res, err := Parse(input, Options{Format: jsonlFmt, HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(res.Header, " "), "id_key id name_key name"; got != want {
		t.Fatalf("Header = %q, want %q", got, want)
	}
	// The header is derived without consuming the first record.
	if res.Table.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2 (JSONL header must not consume a record)", res.Table.NumRows())
	}
	if got := res.Table.Column(1).ValueString(0); got != "1" {
		t.Errorf("row 0 id = %q, want \"1\"", got)
	}
}

func TestWeblogHeaderNaming(t *testing.T) {
	input := []byte("#Version: 1.0\n#Fields: date time cs-uri\n2026-08-07 12:00:01 /index.html\n")
	res, err := Parse(input, Options{Format: NewWeblog(), HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(res.Header, " "), "date time cs-uri"; got != want {
		t.Fatalf("Header = %q, want %q", got, want)
	}
	if res.Table.NumRows() != 1 || res.Table.NumColumns() != 3 {
		t.Fatalf("shape = %dx%d, want 1x3", res.Table.NumRows(), res.Table.NumColumns())
	}
	// Without a #Fields directive nothing is consumed and no names derive.
	res, err = Parse([]byte("a b\n"), Options{Format: NewWeblog(), HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Header) != 0 {
		t.Errorf("Header = %q, want none without a #Fields directive", res.Header)
	}
	if res.Table.NumRows() != 1 {
		t.Errorf("rows = %d, want 1", res.Table.NumRows())
	}
}

// TestUnstreamableFormat pins the streaming-soundness gate: a
// FormatBuilder grammar whose record-delimiter transition does not
// return to the start state parses whole but is rejected from every
// streaming mode with ErrUnstreamable, and large ParseReader inputs
// fall back to whole-input buffering for it.
func TestUnstreamableFormat(t *testing.T) {
	fb := NewFormatBuilder()
	a := fb.State("A", true, false)
	b := fb.State("B", true, false)
	nl := fb.Group('\n')
	star := fb.CatchAll()
	fb.On(nl, a, b, RecordDelim) // the delimiter moves A→B: no reset
	fb.On(nl, b, b, RecordDelim)
	fb.On(star, a, a, Data)
	fb.On(star, b, b, Data)
	f, err := fb.Build(a)
	if err != nil {
		t.Fatal(err)
	}
	if f.Streamable() {
		t.Fatal("non-resetting grammar must not be streamable")
	}
	input := []byte("x\ny\nz\n")
	res, err := Parse(input, Options{Format: f})
	if err != nil {
		t.Fatalf("whole-input Parse must work: %v", err)
	}
	if res.Table.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", res.Table.NumRows())
	}
	_, err = Stream(input, StreamOptions{Options: Options{Format: f}})
	if !errors.Is(err, ErrUnstreamable) {
		t.Fatalf("Stream error = %v, want ErrUnstreamable", err)
	}
	// ParseReader above the streaming threshold must detect the
	// unstreamable format and buffer the whole input instead.
	defer func(old int) { ReaderStreamThreshold = old }(ReaderStreamThreshold)
	ReaderStreamThreshold = 8
	big := bytes.Repeat([]byte("record\n"), 64)
	got, err := ParseReader(bytes.NewReader(big), Options{Format: f})
	if err != nil {
		t.Fatalf("ParseReader fallback: %v", err)
	}
	if got.Table.NumRows() != 64 {
		t.Fatalf("fallback rows = %d, want 64", got.Table.NumRows())
	}
	// A streamable format at the same threshold takes the streamed route
	// and must agree with the whole-input parse.
	want, err := Parse(big, Options{})
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := ParseReader(bytes.NewReader(big), Options{Schema: want.Table.Schema()})
	if err != nil {
		t.Fatalf("streamed ParseReader: %v", err)
	}
	if streamed.Table.NumRows() != want.Table.NumRows() {
		t.Fatalf("streamed rows = %d, want %d", streamed.Table.NumRows(), want.Table.NumRows())
	}
}

// ---------------------------------------------------------------------
// Fuzzers: grammar vs reference (and encoding/json for JSONL)
// ---------------------------------------------------------------------

// fuzzGrammarParity is the shared fuzz body: parse with fuzzed chunk
// size, fast paths (fastRaw's bit 1 switches off the fused tables, bit 2
// the skip-ahead) and convert workers; require the table and the
// invalid-input flag to match the hand-written reference; and run the
// pushdown-vs-post-hoc Where parity leg.
func fuzzGrammarParity(t *testing.T, format *Format, ref func([]byte) ([][]string, bool), input []byte, chunkRaw, fastRaw, workersRaw uint8) {
	chunk := chunkSizeFromFuzz(chunkRaw)
	recs, invalid := ref(input)
	opts := withFastPath(Options{Format: format, ChunkSize: chunk}, fastRaw&1 == 0, fastRaw&2 == 0)
	workers := convertWorkers(convertWorkersFromFuzz(workersRaw))
	width := refWidth(recs)
	if width > 0 {
		opts.Schema = allStringSchema(width)
	}
	res, err := coreEngine(t, opts, workers).Parse(input)
	if err != nil {
		t.Fatalf("Parse failed on %q: %v", input, err)
	}
	if res.Stats.InvalidInput != invalid {
		t.Fatalf("InvalidInput = %v, reference says %v on %q", res.Stats.InvalidInput, invalid, input)
	}
	checkAgainstRef(t, fmt.Sprintf("fuzz %q", input), res.Table, recs)

	// Pushdown parity: a fuzzed Where list must prune identically inside
	// the plan and on the post-materialisation path.
	if width > 0 {
		popts := opts
		popts.Scan.Where = whereFromFuzz(fastRaw, int(chunkRaw)%width, input)
		push, err := coreEngine(t, popts, workers).Parse(input)
		if err != nil {
			t.Fatalf("pushdown Parse failed on %q: %v", input, err)
		}
		post, err := coreEngine(t, popts, workers, noPushdown).Parse(input)
		if err != nil {
			t.Fatalf("post-hoc Parse failed on %q: %v", input, err)
		}
		a, b := tableRows(push.Table), tableRows(post.Table)
		if len(a) != len(b) {
			t.Fatalf("pushdown rows %d vs post-hoc %d on %q (where=%v)", len(a), len(b), input, popts.Scan.Where)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("pushdown row %d: %q vs %q on %q", i, a[i], b[i], input)
			}
		}
	}
}

// jsonNestingDepth returns the maximum container nesting depth of a
// JSON value (top container = 1), string-aware.
func jsonNestingDepth(line []byte) int {
	depth, max := 0, 0
	inStr, esc := false, false
	for _, c := range line {
		if inStr {
			switch {
			case esc:
				esc = false
			case c == '\\':
				esc = true
			case c == '"':
				inStr = false
			}
			continue
		}
		switch c {
		case '"':
			inStr = true
		case '{', '[':
			depth++
			if depth > max {
				max = depth
			}
		case '}', ']':
			depth--
		}
	}
	return max
}

// jsonFlatFields extracts the alternating key/value fields of a flat
// (depth-1, container-free values) JSON object line with encoding/json,
// preserving numeric literals via UseNumber.
func jsonFlatFields(line []byte) ([]string, bool) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	tok, err := dec.Token()
	if err != nil || tok != json.Delim('{') {
		return nil, false
	}
	fields := []string{}
	for dec.More() {
		k, err := dec.Token()
		if err != nil {
			return nil, false
		}
		key, ok := k.(string)
		if !ok {
			return nil, false
		}
		v, err := dec.Token()
		if err != nil {
			return nil, false
		}
		var val string
		switch x := v.(type) {
		case string:
			val = x
		case json.Number:
			val = x.String()
		case bool:
			val = strconv.FormatBool(x)
		case nil:
			val = "null"
		default:
			return nil, false
		}
		fields = append(fields, key, val)
	}
	if tok, err := dec.Token(); err != nil || tok != json.Delim('}') {
		return nil, false
	}
	return fields, true
}

// FuzzJSONL cross-checks the JSONL grammar against the hand-written
// reference and encoding/json: any line that is a valid single-line
// JSON object within the depth bound must be accepted by the DFA, and
// for flat escape-free objects the extracted fields must agree with
// encoding/json's token stream.
// Run with: go test -fuzz FuzzJSONL -fuzztime 30s
func FuzzJSONL(f *testing.F) {
	f.Add([]byte(`{"a":1,"b":2}`+"\n"), uint8(31), uint8(0), uint8(0))
	f.Add([]byte(`{"k":"v\"w","n":{"x":[1, 2]}}`+"\n"), uint8(7), uint8(1), uint8(1))
	f.Add([]byte("\n{\"a\":1}\n\n{\"a\":2}"), uint8(4), uint8(2), uint8(2))
	f.Add([]byte("{}\n{bare:token}\n"), uint8(16), uint8(4), uint8(1))
	f.Add([]byte(`{"a":[[[[1]]]]}`+"\n"), uint8(8), uint8(3), uint8(0))
	f.Add([]byte(`{"open":"unterminated`), uint8(5), uint8(5), uint8(2))
	f.Add([]byte("[1,2]\njunk\n"), uint8(64), uint8(6), uint8(0))
	f.Add(bytes.Repeat([]byte(`{"k":"a,\"b\"","n":[1,{"x":2}]}`+"\n"), 20), uint8(195), uint8(0), uint8(1))

	format, err := NewJSONL(JSONL{})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, input []byte, chunkRaw, fastRaw, workersRaw uint8) {
		fuzzGrammarParity(t, format,
			func(in []byte) ([][]string, bool) { return refJSONL(in, 4) },
			input, chunkRaw, fastRaw, workersRaw)

		for _, line := range bytes.Split(input, []byte("\n")) {
			trimmed := bytes.Trim(line, " \t\r")
			if len(trimmed) == 0 || trimmed[0] != '{' || !json.Valid(line) {
				continue
			}
			d := jsonNestingDepth(line)
			if d < 1 || d > 4 {
				continue
			}
			terminated := append(append([]byte(nil), line...), '\n')
			if err := format.Validate(terminated); err != nil {
				t.Fatalf("encoding/json accepts %q (depth %d) but the DFA rejects it: %v", line, d, err)
			}
			// The field comparison needs valid UTF-8: encoding/json
			// substitutes U+FFFD for invalid bytes on decode, while the
			// grammar keeps field bytes raw.
			if d == 1 && !bytes.ContainsAny(line, `\`) && utf8.Valid(line) {
				want, ok := jsonFlatFields(line)
				if !ok {
					continue
				}
				recs, bad := refJSONL(terminated, 4)
				if bad || len(recs) != 1 {
					t.Fatalf("reference rejects json-valid flat object %q (recs=%d bad=%v)", line, len(recs), bad)
				}
				if len(want) == 0 {
					// Documented divergence: an empty object yields one
					// empty field, not zero fields.
					want = []string{""}
				}
				if strings.Join(recs[0], "\x00") != strings.Join(want, "\x00") {
					t.Fatalf("fields of %q: grammar %q vs encoding/json %q", line, recs[0], want)
				}
			}
		}
	})
}

// FuzzTSVEscape cross-checks the escape-delimited family against the
// unfolding reference, with the dialect itself fuzzed (delimiter,
// CRLF strictness, comment symbol).
// Run with: go test -fuzz FuzzTSVEscape -fuzztime 30s
func FuzzTSVEscape(f *testing.F) {
	f.Add([]byte("a\tb\nc\td\n"), uint8(0), uint8(31), uint8(0), uint8(0))
	f.Add([]byte("a\\\tb\tc\n"), uint8(0), uint8(7), uint8(1), uint8(1))
	f.Add([]byte("a|b\r\nc\\|d\r\n"), uint8(3), uint8(4), uint8(2), uint8(2))
	f.Add([]byte("# comment\nx\\\ny\n"), uint8(4), uint8(16), uint8(3), uint8(1))
	f.Add([]byte("a\rb\r\n"), uint8(2), uint8(8), uint8(4), uint8(0))
	f.Add([]byte("dangling\\"), uint8(1), uint8(5), uint8(5), uint8(2))
	f.Add([]byte("\n\t\n"), uint8(0), uint8(64), uint8(6), uint8(0))
	f.Add(bytes.Repeat([]byte("a\\\tb\tc\\\nd\n# note\n"), 40), uint8(0), uint8(199), uint8(2), uint8(1))

	f.Fuzz(func(t *testing.T, input []byte, dialRaw, chunkRaw, fastRaw, workersRaw uint8) {
		dialect := TSV{}
		if dialRaw&1 != 0 {
			dialect.Delimiter = '|'
		}
		if dialRaw&2 != 0 {
			dialect.CRLF = true
		}
		if dialRaw&4 != 0 {
			dialect.Comment = '#'
		}
		format, err := NewTSV(dialect)
		if err != nil {
			t.Fatalf("NewTSV(%+v): %v", dialect, err)
		}
		fuzzGrammarParity(t, format,
			func(in []byte) ([][]string, bool) { return refTSV(in, dialect) },
			input, chunkRaw, fastRaw, workersRaw)
	})
}

// FuzzWeblog cross-checks the weblog grammar against the quote/escape
// unfolding reference.
// Run with: go test -fuzz FuzzWeblog -fuzztime 30s
func FuzzWeblog(f *testing.F) {
	f.Add([]byte("#Fields: a b\nx \"y z\" w\n"), uint8(31), uint8(0), uint8(0))
	f.Add([]byte(`a "say \"hi\" \\ bye" b`+"\n"), uint8(7), uint8(1), uint8(1))
	f.Add([]byte("a b\r\n\r\n   \r\nc #d\r\n"), uint8(4), uint8(2), uint8(2))
	f.Add([]byte("\"multi\nline\" tail"), uint8(16), uint8(3), uint8(1))
	f.Add([]byte(`a "unterminated`), uint8(5), uint8(4), uint8(0))
	f.Add([]byte("a  b\n"), uint8(8), uint8(5), uint8(2))
	f.Add(bytes.Repeat([]byte(`a "b c" "d \"e\"" f`+"\n"), 40), uint8(192), uint8(0), uint8(1))

	format := NewWeblog()
	f.Fuzz(func(t *testing.T, input []byte, chunkRaw, fastRaw, workersRaw uint8) {
		fuzzGrammarParity(t, format, refWeblog, input, chunkRaw, fastRaw, workersRaw)
	})
}
