package dfa

import (
	"reflect"
	"testing"
)

// walkFields runs m sequentially and materialises records from the
// emission stream the way the offset/scatter kernels do: data bytes
// accumulate into the current field, field delimiters end a field,
// record delimiters end a record, and a mid-record end of input flushes
// one trailing record.
func walkFields(m *Machine, in []byte) [][]string {
	var records [][]string
	var rec []string
	var field []byte
	s := m.Start()
	for _, c := range in {
		g := m.Group(c)
		e := m.Emission(s, g)
		switch {
		case e.IsRecordDelim():
			rec = append(rec, string(field))
			records = append(records, rec)
			rec, field = nil, nil
		case e.IsFieldDelim():
			rec = append(rec, string(field))
			field = nil
		case e.IsData():
			field = append(field, c)
		}
		s = m.NextByGroup(s, g)
	}
	if m.MidRecord(s) {
		rec = append(rec, string(field))
		records = append(records, rec)
	}
	return records
}

func TestJSONLDepthValidation(t *testing.T) {
	for _, d := range []int{-1, 5, 100} {
		if _, err := NewJSONL(JSONLOptions{MaxDepth: d}); err == nil {
			t.Errorf("MaxDepth %d: expected error", d)
		}
	}
	for d := 1; d <= MaxJSONLDepth; d++ {
		m, err := NewJSONL(JSONLOptions{MaxDepth: d})
		if err != nil {
			t.Fatalf("MaxDepth %d: %v", d, err)
		}
		if want := 6 + 3*(d-1); m.NumStates() != want {
			t.Errorf("MaxDepth %d: %d states, want %d", d, m.NumStates(), want)
		}
	}
	if m := MustJSONL(JSONLOptions{}); m.NumStates() != 6+3*(MaxJSONLDepth-1) {
		t.Errorf("default depth: %d states", m.NumStates())
	}
}

func TestJSONLValidate(t *testing.T) {
	m := MustJSONL(JSONLOptions{})
	valid := []string{
		"",
		"\n",
		"\n\n\n",
		"{}\n",
		"{}", // trailing record without newline
		`{"a":1}` + "\n",
		`{"a":"x","b":true}` + "\n" + `{"a":2,"b":null}` + "\n",
		`{ "a" : 1 , "b" : 2 }` + "\n",
		`{"esc":"quote \" brace } bracket ] backslash \\ done"}` + "\n",
		`{"nest":{"deep":[1,{"x":2}]}}` + "\n", // depth 4
		`{"arr":[1,[2,[3]]]}` + "\n",
		"  {\"a\":1}  \r\n",   // padding around the record
		`{bare:token}` + "\n", // structural leniency: bare keys
	}
	for _, in := range valid {
		if err := m.Validate([]byte(in)); err != nil {
			t.Errorf("Validate(%q): %v", in, err)
		}
	}
	invalid := []string{
		"{\"a\":\"x\ny\"}\n",     // raw newline inside a string
		"{\"a\":1\n",             // newline mid-object
		`{"a":[[[[1]]]]}` + "\n", // depth 5 > MaxDepth
		"[1,2]\n",                // top level must be an object
		`{"a":1}}` + "\n",        // text after the closing brace
		`{"a":]}` + "\n",         // unbalanced close at depth 1
		"junk\n",                 // record does not open with '{'
		`{"a":1} trailing` + "\n",
		`{"open":"unterminated`, // EOF inside a string
		"{\"a\":\"x\\",          // EOF inside an escape
	}
	for _, in := range invalid {
		if err := m.Validate([]byte(in)); err == nil {
			t.Errorf("Validate(%q): expected error", in)
		}
	}

	shallow := MustJSONL(JSONLOptions{MaxDepth: 1})
	if err := shallow.Validate([]byte(`{"a":1}` + "\n")); err != nil {
		t.Errorf("shallow flat object: %v", err)
	}
	if err := shallow.Validate([]byte(`{"a":{}}` + "\n")); err == nil {
		t.Error("shallow nested object: expected error")
	}
}

func TestJSONLFields(t *testing.T) {
	m := MustJSONL(JSONLOptions{})
	cases := []struct {
		in   string
		want [][]string
	}{
		{`{"a":1,"b":2}` + "\n", [][]string{{"a", "1", "b", "2"}}},
		// Quotes are excluded, escapes stay raw, nested values are
		// opaque byte-for-byte (including their own quotes and commas).
		{`{"k":"v\"w","n":{"x":[1, 2]},"z":null}` + "\n",
			[][]string{{"k", `v\"w`, "n", `{"x":[1, 2]}`, "z", "null"}}},
		// Depth-1 whitespace is control; nested whitespace is data.
		{`{ "a" : [1,  2] }` + "\n", [][]string{{"a", "[1,  2]"}}},
		// Blank lines vanish; the trailing record needs no newline.
		{"\n{\"a\":1}\n\n{\"a\":2}", [][]string{{"a", "1"}, {"a", "2"}}},
		{"{}\n", [][]string{{""}}},
	}
	for _, c := range cases {
		if got := walkFields(m, []byte(c.in)); !reflect.DeepEqual(got, c.want) {
			t.Errorf("walkFields(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestEscapedOptionErrors(t *testing.T) {
	bad := []EscapedOptions{
		{RecordDelim: "\r"},
		{RecordDelim: ";"},
		{FieldDelim: '\n'},
		{FieldDelim: '\r'},
		{Escape: '\n'},
		{Comment: '\r'},
		{FieldDelim: '\\'},              // collides with default escape
		{FieldDelim: '|', Comment: '|'}, // comment = field delim
		{Escape: '#', Comment: '#'},     // comment = escape
	}
	for _, o := range bad {
		if _, err := NewEscaped(o); err == nil {
			t.Errorf("NewEscaped(%+v): expected error", o)
		}
	}
	if _, err := NewEscaped(EscapedOptions{}); err != nil {
		t.Errorf("default options: %v", err)
	}
}

func TestEscapedFieldsLF(t *testing.T) {
	m := MustEscaped(EscapedOptions{Comment: '#'})
	cases := []struct {
		in   string
		want [][]string
	}{
		{"a\tb\nc\td\n", [][]string{{"a", "b"}, {"c", "d"}}},
		// Escapes unfold: the introducer is control, the next byte is
		// literal data — even delimiters and newlines.
		{"a\\\tb\tc\n", [][]string{{"a\tb", "c"}}},
		{"a\\\nb\tc\n", [][]string{{"a\nb", "c"}}},
		{"a\\\\\tb\n", [][]string{{"a\\", "b"}}},
		{"\\#not a comment\n", [][]string{{"#not a comment"}}},
		{"# a comment\nx\n", [][]string{{"x"}}},
		{"\n\t\n", [][]string{{""}, {"", ""}}}, // empty records and fields survive
		{"trailing", [][]string{{"trailing"}}},
	}
	for _, c := range cases {
		if got := walkFields(m, []byte(c.in)); !reflect.DeepEqual(got, c.want) {
			t.Errorf("walkFields(%q) = %q, want %q", c.in, got, c.want)
		}
		if err := m.Validate([]byte(c.in)); err != nil {
			t.Errorf("Validate(%q): %v", c.in, err)
		}
	}
	// A dangling escape is the one invalid LF-form ending.
	if err := m.Validate([]byte("a\\")); err == nil {
		t.Error("dangling escape: expected error")
	}
	if _, has := m.InvalidState(); has {
		t.Error("LF form should declare no invalid sink")
	}
}

func TestEscapedFieldsCRLF(t *testing.T) {
	m := MustEscaped(EscapedOptions{FieldDelim: '|', RecordDelim: "\r\n", Comment: '#'})
	cases := []struct {
		in   string
		want [][]string
	}{
		{"a|b\r\nc|d\r\n", [][]string{{"a", "b"}, {"c", "d"}}},
		{"a\\|b|c\r\n", [][]string{{"a|b", "c"}}},
		{"a\\\rb\r\n", [][]string{{"a\rb"}}}, // escaped CR is data
		{"# comment\r\nx\r\n", [][]string{{"x"}}},
	}
	for _, c := range cases {
		if got := walkFields(m, []byte(c.in)); !reflect.DeepEqual(got, c.want) {
			t.Errorf("walkFields(%q) = %q, want %q", c.in, got, c.want)
		}
		if err := m.Validate([]byte(c.in)); err != nil {
			t.Errorf("Validate(%q): %v", c.in, err)
		}
	}
	invalid := []string{
		"a\nb\r\n",         // bare LF
		"a\rb\r\n",         // bare CR mid-record
		"a\r",              // truncated delimiter
		"a\r\rb\r\n",       // CR CR
		"# comment\nx\r\n", // comment line must also end in CRLF
	}
	for _, in := range invalid {
		if err := m.Validate([]byte(in)); err == nil {
			t.Errorf("Validate(%q): expected error", in)
		}
	}
	// Truncated comment lines are tolerated, like the CSV machine's.
	for _, in := range []string{"# truncated", "# truncated\r"} {
		if err := m.Validate([]byte(in)); err != nil {
			t.Errorf("Validate(%q): %v", in, err)
		}
	}
}

func TestWeblogFields(t *testing.T) {
	m := Weblog()
	cases := []struct {
		in   string
		want [][]string
	}{
		{"#Version: 1.0\n#Fields: date time cs-uri\n2026-08-07 12:00:01 /index.html\n",
			[][]string{{"2026-08-07", "12:00:01", "/index.html"}}},
		// Quoted fields: quotes excluded, inner spaces kept, escapes
		// unfolded.
		{`10.0.0.1 "Mozilla/5.0 (X11; Linux)" 200` + "\n",
			[][]string{{"10.0.0.1", "Mozilla/5.0 (X11; Linux)", "200"}}},
		{`a "say \"hi\" \\ bye" b` + "\n", [][]string{{"a", `say "hi" \ bye`, "b"}}},
		// Quote only opens at field start; mid-field it is data.
		{"ab\"cd e\n", [][]string{{"ab\"cd", "e"}}},
		// CRLF, blank and all-space lines, '#' mid-record.
		{"a b\r\n\r\n   \r\nc #d\r\n", [][]string{{"a", "b"}, {"c", "#d"}}},
		// Consecutive delimiters make empty fields mid-record.
		{"a  b\n", [][]string{{"a", "", "b"}}},
		// Newline inside quotes is data; trailing record tolerated.
		{"\"multi\nline\" tail", [][]string{{"multi\nline", "tail"}}},
	}
	for _, c := range cases {
		if got := walkFields(m, []byte(c.in)); !reflect.DeepEqual(got, c.want) {
			t.Errorf("walkFields(%q) = %q, want %q", c.in, got, c.want)
		}
		if err := m.Validate([]byte(c.in)); err != nil {
			t.Errorf("Validate(%q): %v", c.in, err)
		}
	}
	// The only invalid endings are inside a quoted field.
	for _, in := range []string{`a "unterminated`, `a "esc\`} {
		if err := m.Validate([]byte(in)); err == nil {
			t.Errorf("Validate(%q): expected error", in)
		}
	}
	if _, has := m.InvalidState(); has {
		t.Error("weblog should declare no invalid sink")
	}
}

// TestGrammarMetadata pins the dialect-dispatch and streaming-soundness
// metadata every shipped grammar must expose: a Kind for the dialect
// layer, and record-delimiter transitions that reset to the start state
// so every partition's carry boundary stays exact.
func TestGrammarMetadata(t *testing.T) {
	kinds := map[string]string{
		"rfc4180": "csv", "rfc4180-table": "csv", "comment-crlf": "csv",
		"semicolon": "csv", "jsonl": "jsonl", "jsonl-shallow": "jsonl",
		"jsonl-table": "jsonl", "tsv-escape": "escaped",
		"psv-crlf": "escaped", "weblog": "weblog",
	}
	for name, m := range fusedTestMachines() {
		if m.Kind() != kinds[name] {
			t.Errorf("%s: Kind() = %q, want %q", name, m.Kind(), kinds[name])
		}
		if !m.ResetsOnRecordDelim() {
			t.Errorf("%s: shipped grammar must reset on record delimiters", name)
		}
	}
	// A hand-built machine whose record delimiter lands mid-structure
	// must report itself unsound for streaming.
	b := NewBuilder()
	s0 := b.State("A", Accepting(true))
	s1 := b.State("B", Accepting(true))
	g := b.Group('\n')
	star := b.CatchAll()
	b.On(g, s0, s1, EmitRecordDelim|EmitControl) // delimiter does NOT reset
	b.On(g, s1, s1, EmitRecordDelim|EmitControl)
	b.On(star, s0, s0, EmitData)
	b.On(star, s1, s1, EmitData)
	m := b.MustBuild(s0)
	if m.ResetsOnRecordDelim() {
		t.Error("non-resetting machine must report ResetsOnRecordDelim() == false")
	}
	if m.Kind() != "" {
		t.Errorf("builder machine Kind() = %q, want \"\"", m.Kind())
	}
}
