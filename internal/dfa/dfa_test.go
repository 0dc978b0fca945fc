package dfa

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/statevec"
)

// TestRFC4180TransitionTableMatchesPaper reproduces Table 1 cell by cell.
func TestRFC4180TransitionTableMatchesPaper(t *testing.T) {
	m := RFC4180()
	if m.NumStates() != NumCSVStates {
		t.Fatalf("states = %d, want %d", m.NumStates(), NumCSVStates)
	}
	if m.NumGroups() != 4 {
		t.Fatalf("groups = %d, want 4", m.NumGroups())
	}
	// Table 1 rows: symbol group × (EOR ENC FLD EOF ESC INV).
	want := map[byte][NumCSVStates]State{
		'\n': {StateEOR, StateENC, StateEOR, StateEOR, StateEOR, StateINV},
		'"':  {StateENC, StateESC, StateINV, StateENC, StateENC, StateINV},
		',':  {StateEOF, StateENC, StateEOF, StateEOF, StateEOF, StateINV},
		'x':  {StateFLD, StateENC, StateFLD, StateFLD, StateINV, StateINV}, // catch-all '*'
	}
	for sym, row := range want {
		for s := 0; s < NumCSVStates; s++ {
			if got := m.Next(State(s), sym); got != row[s] {
				t.Errorf("Next(%s, %q) = %s, want %s",
					m.StateName(State(s)), sym, m.StateName(got), m.StateName(row[s]))
			}
		}
	}
	if m.Start() != StateEOR {
		t.Errorf("start = %s, want EOR", m.StateName(m.Start()))
	}
	if inv, ok := m.InvalidState(); !ok || inv != StateINV {
		t.Errorf("invalid state = %d/%v", inv, ok)
	}
}

func TestRFC4180Emissions(t *testing.T) {
	m := RFC4180()
	g := func(b byte) uint32 { return m.Group(b) }
	cases := []struct {
		state State
		sym   byte
		want  func(Emission) bool
		desc  string
	}{
		{StateFLD, '\n', Emission.IsRecordDelim, "newline after field delimits record"},
		{StateENC, '\n', Emission.IsData, "newline inside quotes is data"},
		{StateFLD, ',', Emission.IsFieldDelim, "comma after field delimits field"},
		{StateENC, ',', Emission.IsData, "comma inside quotes is data"},
		{StateEOR, '"', Emission.IsControl, "opening quote is control"},
		{StateENC, '"', Emission.IsControl, "tentative closing quote is control"},
		{StateESC, '"', Emission.IsData, "second quote of escaped pair is data"},
		{StateFLD, 'x', Emission.IsData, "ordinary symbol is data"},
		{StateESC, ',', Emission.IsFieldDelim, "comma after closing quote delimits field"},
		{StateESC, '\n', Emission.IsRecordDelim, "newline after closing quote delimits record"},
	}
	for _, c := range cases {
		e := m.Emission(c.state, g(c.sym))
		if !c.want(e) {
			t.Errorf("%s: emission = %v", c.desc, e)
		}
	}
}

func TestRunSimpleRecords(t *testing.T) {
	m := RFC4180()
	cases := []struct {
		in   string
		end  State
		okay bool
	}{
		{"", StateEOR, true},
		{"a,b,c\n", StateEOR, true},
		{"a,b,c", StateFLD, true},
		{"a,b,", StateEOF, true},
		{`"a"`, StateESC, true},
		{`"a,b"` + "\n", StateEOR, true},
		{`"unterminated`, StateENC, false},
		{`ab"cd`, StateINV, false},
		{`"a"x`, StateINV, false},
		{"1941,199.99,\"Bookcase\"\n1938,19.99,\"Frame\n\"\"Ribba\"\", black\"\n", StateEOR, true},
	}
	for _, c := range cases {
		end := m.Run(m.Start(), []byte(c.in))
		if end != c.end {
			t.Errorf("Run(%q) ends in %s, want %s", c.in, m.StateName(end), m.StateName(c.end))
		}
		err := m.Validate([]byte(c.in))
		if (err == nil) != c.okay {
			t.Errorf("Validate(%q) = %v, want ok=%v", c.in, err, c.okay)
		}
	}
}

// ChunkVector simulates one DFA instance per state over the chunk and
// returns the resulting state-transition vector (§3.1, Figure 3):
// out[i] = state reached from start state i after reading all of chunk.
// It is the unpacked reference ChunkWord and ChunkWordEmit are checked
// against.
func (m *Machine) ChunkVector(chunk []byte) statevec.Vector {
	v := statevec.Identity(m.numStates)
	m.advanceVector(v, chunk)
	return v
}

// composed returns the composite a∘b of §3.1: (a∘b)[i] = b[a[i]].
func composed(a, b statevec.Vector) statevec.Vector {
	dst := make(statevec.Vector, len(a))
	for i := range a {
		dst[i] = b[a[i]]
	}
	return dst
}

// TestChunkVectorTheorem is the central correctness property of §3.1:
// splitting any input into arbitrary chunks, computing each chunk's
// state-transition vector independently, and composing them must agree
// with a sequential simulation from every start state.
func TestChunkVectorTheorem(t *testing.T) {
	machines := map[string]*Machine{
		"rfc4180":  RFC4180(),
		"comments": NewCSV(CSVOptions{Comment: '#'}),
		"crlf":     NewCSV(CSVOptions{CarriageReturn: true}),
		"semicolon": NewCSV(CSVOptions{
			FieldDelim: ';', Quote: '\'', Comment: '#',
		}),
	}
	alphabet := []byte("ab,\"\n#;'\r\\x01")
	rng := rand.New(rand.NewSource(99))
	for name, m := range machines {
		for trial := 0; trial < 60; trial++ {
			n := rng.Intn(300)
			input := make([]byte, n)
			for i := range input {
				input[i] = alphabet[rng.Intn(len(alphabet))]
			}
			// Split into random chunks.
			var chunks [][]byte
			for pos := 0; pos < n; {
				sz := 1 + rng.Intn(17)
				end := pos + sz
				if end > n {
					end = n
				}
				chunks = append(chunks, input[pos:end])
				pos = end
			}
			composite := statevec.Identity(m.NumStates())
			for _, ch := range chunks {
				composite = composed(composite, m.ChunkVector(ch))
			}
			for s := 0; s < m.NumStates(); s++ {
				seq := m.Run(State(s), input)
				if composite[s] != seq {
					t.Fatalf("%s trial %d: composed vector start=%d gives %d, sequential gives %d (input %q)",
						name, trial, s, composite[s], seq, input)
				}
			}
		}
	}
}

// TestSWARAndTableStrategiesAgree holds the §4.5 SWAR matcher over a
// machine's symbols to the byte → group table every kernel reads.
func TestSWARAndTableStrategiesAgree(t *testing.T) {
	for name, m := range fusedTestMachines() {
		swar := device.NewSWARMatcher(m.Symbols())
		for b := 0; b < 256; b++ {
			if got, want := swar.Index(byte(b)), m.Group(byte(b)); got != want {
				t.Errorf("%s: byte %#x: swar=%d table=%d", name, b, got, want)
			}
		}
	}
}

func TestCommentMachine(t *testing.T) {
	m := NewCSV(CSVOptions{Comment: '#'})
	in := []byte("a,b\n# a comment, with, commas\nc,d\n")
	if err := m.Validate(in); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Count record-delimiter emissions along a sequential walk: the
	// comment's newline must not delimit a record.
	s := m.Start()
	records := 0
	for _, b := range in {
		g := m.Group(b)
		if m.Emission(s, g).IsRecordDelim() {
			records++
		}
		s = m.NextByGroup(s, g)
	}
	if records != 2 {
		t.Errorf("record delimiters = %d, want 2", records)
	}
	// '#' mid-field is data, not a comment.
	s = m.Start()
	in2 := []byte("a#b,c\n")
	dataBytes := 0
	for _, b := range in2 {
		g := m.Group(b)
		if m.Emission(s, g).IsData() {
			dataBytes++
		}
		s = m.NextByGroup(s, g)
	}
	if dataBytes != 4 { // a # b c
		t.Errorf("data bytes = %d, want 4", dataBytes)
	}
}

func TestCRLFMachine(t *testing.T) {
	m := NewCSV(CSVOptions{CarriageReturn: true})
	if err := m.Validate([]byte("a,b\r\nc,d\r\n")); err != nil {
		t.Fatalf("CRLF input rejected: %v", err)
	}
	// The \r must be control (not part of the field value).
	s := m.Run(m.Start(), []byte("a"))
	if e := m.Emission(s, m.Group('\r')); !e.IsControl() || e.IsRecordDelim() {
		t.Errorf("\\r emission = %v", e)
	}
	// \r inside quotes is data.
	s = m.Run(m.Start(), []byte(`"a`))
	if e := m.Emission(s, m.Group('\r')); !e.IsData() {
		t.Errorf("quoted \\r emission = %v", e)
	}
}

func TestCustomDelimiters(t *testing.T) {
	m := NewCSV(CSVOptions{FieldDelim: '|', Quote: '\'', RecordDelim: ';'})
	if err := m.Validate([]byte("a|b;'c|d';")); err != nil {
		t.Fatalf("custom delimiter input rejected: %v", err)
	}
	if m.Next(StateFLD, '|') != StateEOF {
		t.Error("custom field delimiter not honoured")
	}
	if m.Next(StateFLD, ',') != StateFLD {
		t.Error("',' must be ordinary data under custom delimiters")
	}
}

func TestValidationErrors(t *testing.T) {
	m := RFC4180()
	if err := m.Validate([]byte(`a"b`)); err == nil {
		t.Error("bare quote in field must be invalid")
	}
	if err := m.Validate([]byte(`"open`)); err == nil {
		t.Error("unterminated quote must be non-accepting")
	}
}

func TestChunkVectorEmptyChunk(t *testing.T) {
	m := RFC4180()
	v := m.ChunkVector(nil)
	if !v.IsIdentity() {
		t.Errorf("empty chunk vector = %v, want identity", v)
	}
}

func TestStateNames(t *testing.T) {
	m := RFC4180()
	names := []string{"EOR", "ENC", "FLD", "EOF", "ESC", "INV"}
	for i, n := range names {
		if got := m.StateName(State(i)); got != n {
			t.Errorf("StateName(%d) = %q, want %q", i, got, n)
		}
	}
	if got := m.StateName(99); got != "s99" {
		t.Errorf("out-of-range StateName = %q", got)
	}
}

func TestEmissionString(t *testing.T) {
	if EmitRecordDelim.String() != "record-delim" ||
		EmitFieldDelim.String() != "field-delim" ||
		EmitControl.String() != "control" ||
		EmitData.String() != "data" {
		t.Error("Emission.String broken")
	}
}

func TestBuilderErrors(t *testing.T) {
	// Missing transition.
	b := NewBuilder()
	s0 := b.State("A", Accepting(true))
	g := b.Group('x')
	b.On(g, s0, s0, EmitData)
	if _, err := b.Build(s0); err == nil {
		t.Error("want error for missing catch-all transitions")
	}

	// Invalid state that is not a sink.
	b2 := NewBuilder()
	a := b2.State("A")
	bad := b2.State("BAD", Invalid())
	b2.OnAll(b2.CatchAll(), a, EmitData)
	if _, err := b2.Build(a); err == nil {
		t.Error("want error for non-sink invalid state")
	}
	_ = bad

	// No states.
	if _, err := NewBuilder().Build(0); err == nil {
		t.Error("want error for empty machine")
	}

	// Start out of range.
	b3 := NewBuilder()
	x := b3.State("X", Accepting(true))
	b3.OnAll(b3.CatchAll(), x, EmitData)
	if _, err := b3.Build(5); err == nil {
		t.Error("want error for out-of-range start")
	}
}

func TestBuilderPanics(t *testing.T) {
	b := NewBuilder()
	b.Group('x')
	func() {
		defer func() {
			if recover() == nil {
				t.Error("want panic for duplicate group symbol")
			}
		}()
		b.Group('x')
	}()
	s := b.State("A")
	b.On(0, s, s, EmitData)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("want panic for duplicate transition")
			}
		}()
		b.On(0, s, s, EmitData)
	}()
}

func TestSymbolsCached(t *testing.T) {
	m := RFC4180()
	syms := m.Symbols()
	if len(syms) != 3 {
		t.Fatalf("symbols = %q", syms)
	}
	// Symbols is on per-partition paths (record-delimiter resolution) and
	// must not allocate: it returns the machine's own read-only slice.
	if &syms[0] != &m.Symbols()[0] {
		t.Error("Symbols must return the cached slice, not a fresh copy")
	}
}

// TestRowAccess verifies the coalesced row-access path used by the
// multi-DFA simulation.
func TestRowAccess(t *testing.T) {
	m := RFC4180()
	for b := 0; b < 256; b++ {
		g := m.Group(byte(b))
		row := m.Row(g)
		for s := 0; s < m.NumStates(); s++ {
			if row[s] != m.Next(State(s), byte(b)) {
				t.Fatalf("row access disagrees for byte %#x state %d", b, s)
			}
		}
	}
}

// TestQuickValidCSVAccepted generates random well-formed CSV and checks
// the machine accepts it.
func TestQuickValidCSVAccepted(t *testing.T) {
	m := RFC4180()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var in []byte
		records := 1 + rng.Intn(5)
		for r := 0; r < records; r++ {
			fields := 1 + rng.Intn(4)
			for f := 0; f < fields; f++ {
				if f > 0 {
					in = append(in, ',')
				}
				if rng.Intn(2) == 0 {
					in = append(in, '"')
					for k := rng.Intn(6); k > 0; k-- {
						switch rng.Intn(4) {
						case 0:
							in = append(in, '"', '"')
						case 1:
							in = append(in, ',')
						case 2:
							in = append(in, '\n')
						default:
							in = append(in, 'a')
						}
					}
					in = append(in, '"')
				} else {
					for k := rng.Intn(6); k > 0; k-- {
						in = append(in, byte('a'+rng.Intn(26)))
					}
				}
			}
			in = append(in, '\n')
		}
		return m.Validate(in) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
