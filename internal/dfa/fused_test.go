package dfa

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/statevec"
)

// fusedTestMachines returns the machine zoo the fused fast path must
// agree with the split tables on: the paper's RFC 4180 machine plus the
// variants with extra symbol groups (comments, CRLF) and the other
// grammars.
func fusedTestMachines() map[string]*Machine {
	return map[string]*Machine{
		"rfc4180":       RFC4180(),
		"comment-crlf":  NewCSV(CSVOptions{Comment: '#', CarriageReturn: true}),
		"semicolon":     NewCSV(CSVOptions{FieldDelim: ';', Quote: '\''}),
		"jsonl":         MustJSONL(JSONLOptions{}),
		"jsonl-shallow": MustJSONL(JSONLOptions{MaxDepth: 1}),
		"tsv-escape":    MustEscaped(EscapedOptions{}),
		"psv-crlf":      MustEscaped(EscapedOptions{FieldDelim: '|', RecordDelim: "\r\n", Comment: '#'}),
		"weblog":        Weblog(),
	}
}

// fusedTestInputs generates inputs that exercise every skip-ahead
// regime: long boring runs (quoted text), delimiter-dense fields, and
// adversarial bytes around the scanner's 8-byte windows.
func fusedTestInputs(rng *rand.Rand) [][]byte {
	inputs := [][]byte{
		nil,
		[]byte("a,b,c\n"),
		[]byte(`"quoted, text",plain` + "\n"),
		[]byte("\"long quoted run without any interesting byte at all, spanning windows\"\n"),
		[]byte("\"esc\"\"aped\",\"multi\nline\"\n"),
		[]byte("no trailing newline"),
		[]byte("# comment line\r\nvalue,1\r\n"),
		[]byte("\"unterminated"),
		[]byte(",,,\n,,,\n"),
	}
	alphabet := []byte("ab,\"\n\r#;'x\x00\xff\x01{}[]\\|\t: ")
	for i := 0; i < 40; i++ {
		n := rng.Intn(200)
		in := make([]byte, n)
		for j := range in {
			in[j] = alphabet[rng.Intn(len(alphabet))]
		}
		inputs = append(inputs, in)
	}
	return inputs
}

// TestStepMatchesSplitTables checks the fused table entry for every
// (state, byte) pair against the split composition it was compiled
// from: byte → group, then (group, state) → next state and emission.
func TestStepMatchesSplitTables(t *testing.T) {
	for name, m := range fusedTestMachines() {
		for s := 0; s < m.NumStates(); s++ {
			for b := 0; b < 256; b++ {
				g := m.Group(byte(b))
				wantNext := m.NextByGroup(State(s), g)
				wantEmit := m.Emission(State(s), g)
				next, emit := m.Step(State(s), byte(b))
				if next != wantNext || emit != wantEmit {
					t.Fatalf("%s: Step(%d, %#x) = (%d, %v), split tables say (%d, %v)",
						name, s, b, next, emit, wantNext, wantEmit)
				}
			}
		}
	}
}

// TestSkipScannersConservative verifies the compile-time skip masks: a
// byte the scanner does not consider interesting must be a data-emitting
// self-loop in that state, because the kernels do no work at all for
// skipped bytes.
func TestSkipScannersConservative(t *testing.T) {
	for name, m := range fusedTestMachines() {
		scanners := m.SkipScanners()
		if scanners == nil {
			t.Fatalf("%s: skip scanners disabled by default", name)
		}
		for s, sc := range scanners {
			if sc == nil {
				continue
			}
			for b := 0; b < 256; b++ {
				if sc.Contains(byte(b)) {
					continue
				}
				next, emit := m.Step(State(s), byte(b))
				if next != State(s) || emit != EmitData {
					t.Fatalf("%s: state %q skips byte %#x but it transitions to %q emitting %v",
						name, m.StateName(State(s)), b, m.StateName(next), emit)
				}
			}
		}
		// A pair scanner may skip a byte only when it is a data-emitting
		// self-loop for the emitting state g and a self-loop for o.
		ns := m.NumStates()
		for k, sc := range m.pairSkip {
			if sc == nil {
				continue
			}
			g, o := State(k/ns), State(k%ns)
			for b := 0; b < 256; b++ {
				if sc.Contains(byte(b)) {
					continue
				}
				next, emit := m.Step(g, byte(b))
				if next != g || emit != EmitData || m.Next(o, byte(b)) != o {
					t.Fatalf("%s: pair (%q, %q) skips byte %#x, which moves one of them or emits %v",
						name, m.StateName(g), m.StateName(o), b, emit)
				}
			}
		}
	}
}

// TestRunFusedParity runs every machine over every input from every
// start state under all three fast-path configurations; the final state
// must be identical.
func TestRunFusedParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inputs := fusedTestInputs(rng)
	for name, m := range fusedTestMachines() {
		split := m.SetFastPath(false, false)
		noSkip := m.SetFastPath(true, false)
		for _, in := range inputs {
			for s := 0; s < m.NumStates(); s++ {
				want := split.Run(State(s), in)
				if got := m.Run(State(s), in); got != want {
					t.Fatalf("%s: fused+skip Run from %d over %q = %d, split = %d", name, s, in, got, want)
				}
				if got := noSkip.Run(State(s), in); got != want {
					t.Fatalf("%s: fused Run from %d over %q = %d, split = %d", name, s, in, got, want)
				}
			}
		}
	}
}

// TestChunkVectorFusedParity checks the multi-DFA vector kernel — the
// consumer of the per-live-set skip scanners — against the split path.
func TestChunkVectorFusedParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inputs := fusedTestInputs(rng)
	for name, m := range fusedTestMachines() {
		split := m.SetFastPath(false, false)
		noSkip := m.SetFastPath(true, false)
		for _, in := range inputs {
			want := split.ChunkVector(in)
			if got := m.ChunkVector(in); !got.Equal(want) {
				t.Fatalf("%s: fused+skip vector over %q = %v, split = %v", name, in, got, want)
			}
			if got := noSkip.ChunkVector(in); !got.Equal(want) {
				t.Fatalf("%s: fused vector over %q = %v, split = %v", name, in, got, want)
			}
		}
	}
}

// TestFastPathTogglesIndependent pins the toggle semantics the ablation
// and the fuzzers rely on.
func TestFastPathTogglesIndependent(t *testing.T) {
	m := RFC4180()
	if !m.Fused() || !m.SkipAhead() {
		t.Fatal("fast path must be enabled by default")
	}
	split := m.SetFastPath(false, false)
	if split.Fused() || split.SkipAhead() {
		t.Fatal("SetFastPath(false, false) must disable both")
	}
	if split.SkipScanners() != nil {
		t.Fatal("split machine must expose no skip scanners")
	}
	noSkip := m.SetFastPath(true, false)
	if !noSkip.Fused() || noSkip.SkipAhead() || noSkip.SkipScanners() != nil {
		t.Fatal("SetFastPath(true, false) must keep fused tables without skip-ahead")
	}
	// Skip-ahead without fused tables is meaningless: the toggle reports
	// it off.
	odd := m.SetFastPath(false, true)
	if odd.SkipAhead() {
		t.Fatal("skip-ahead must report disabled when fused tables are off")
	}
	if same := m.SetFastPath(true, true); same != m {
		t.Fatal("SetFastPath with unchanged flags must return the receiver")
	}
}

// TestRecordRemainderMatchesReferenceWalk checks the streaming ring's
// quarantine-recovery walk against a naive split-table walk that
// mirrors the emit kernel's remainder definition: bytes after the last
// record-delimiter emission, or the whole input when no delimiter was
// emitted. Ablation toggles must not change the result — the walk
// always takes the fused path.
func TestRecordRemainderMatchesReferenceWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	inputs := fusedTestInputs(rng)
	for name, m := range fusedTestMachines() {
		split := m.SetFastPath(false, false)
		for _, in := range inputs {
			s := m.Start()
			last := -1
			for i := 0; i < len(in); i++ {
				g := m.Group(in[i])
				if m.Emission(s, g).IsRecordDelim() {
					last = i
				}
				s = m.NextByGroup(s, g)
			}
			want := len(in) - last - 1
			if got := m.RecordRemainder(in); got != want {
				t.Fatalf("%s: RecordRemainder(%q) = %d, reference walk = %d", name, in, got, want)
			}
			if got := split.RecordRemainder(in); got != want {
				t.Fatalf("%s: split-toggled RecordRemainder(%q) = %d, want %d", name, in, got, want)
			}
		}
	}
}

// TestChunkWordFusedParity checks the packed entry point the parse
// kernel calls against the packed reference vector, for every machine
// on the fused+skip, fused and split paths.
func TestChunkWordFusedParity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	inputs := fusedTestInputs(rng)
	for name, m := range fusedTestMachines() {
		split := m.SetFastPath(false, false)
		paths := map[string]*Machine{
			"fused+skip": m,
			"fused":      m.SetFastPath(true, false),
			"split":      split,
		}
		for _, in := range inputs {
			want := statevec.Pack(split.ChunkVector(in))
			for path, pm := range paths {
				if got := pm.ChunkWord(in); got != want {
					t.Fatalf("%s %s: ChunkWord(%q) = %#x, packed ChunkVector = %#x",
						name, path, in, uint64(got), uint64(want))
				}
			}
		}
	}
}

// referenceEmit is the single-lane emit walk spelled out over the split
// tables: one bit set per non-data emission, and the chunk counts
// derived from the walk.
func referenceEmit(m *Machine, input []byte, lo, hi int, s State, bm *Bitmaps) (State, ChunkEmit) {
	var out ChunkEmit
	for i := lo; i < hi; i++ {
		g := m.Group(input[i])
		em := m.Emission(s, g)
		s = m.NextByGroup(s, g)
		if em.IsData() {
			continue
		}
		bm.Control.Set(i)
		switch {
		case em.IsRecordDelim():
			bm.Record.Set(i)
			out.Records++
			if !out.SawRecord {
				out.SawRecord, out.Leading = true, out.Fields
			} else {
				out.Columns.Observe(out.Fields + 1)
			}
			out.Fields = 0
		case em.IsFieldDelim():
			bm.Field.Set(i)
			out.Fields++
		}
	}
	return s, out
}

func newTestBitmaps(n int) *Bitmaps {
	return &Bitmaps{Record: bitmap.New(n), Field: bitmap.New(n), Control: bitmap.New(n)}
}

func equalBitmaps(a, b *Bitmaps) bool {
	for _, pair := range [][2]*bitmap.Bitmap{{a.Record, b.Record}, {a.Field, b.Field}, {a.Control, b.Control}} {
		for w := 0; w < bitmap.WordsFor(pair[0].Len()); w++ {
			if pair[0].Word(w) != pair[1].Word(w) {
				return false
			}
		}
	}
	return true
}

// TestSpeculativeWalkParity holds the one-walk parse kernel to the two
// walks it replaces: for every machine, fast-path setting, guessed
// state and input, ChunkWordEmit's word equals ChunkWord's (and the
// packed reference vector), and its bitmaps and counts equal a
// single-lane emit from the guess, as does Emit's. The chunk sits at an
// unaligned offset inside a larger buffer, so its first and last bitmap
// words are shared ones and no bit outside it may be set.
func TestSpeculativeWalkParity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	inputs := fusedTestInputs(rng)
	// Text-heavy inputs, so the pair and single-lane stages skip long
	// runs and meet their structural bytes in every 8-byte window slot.
	const text = "abcdefghijklmnopqrstuvwxyz  0123456789,,\n\"\t|#{}:[]"
	for i := 0; i < 20; i++ {
		in := make([]byte, 200+rng.Intn(1200))
		for j := range in {
			in[j] = text[rng.Intn(len(text))]
		}
		inputs = append(inputs, in)
	}
	const pad = 13
	for name, m := range fusedTestMachines() {
		split := m.SetFastPath(false, false)
		paths := map[string]*Machine{
			"fused+skip": m,
			"fused":      m.SetFastPath(true, false),
			"split":      split,
		}
		for _, in := range inputs {
			buf := append(append(bytes.Repeat([]byte{'x'}, pad), in...), "tail"...)
			lo, hi := pad, pad+len(in)
			want := statevec.Pack(split.ChunkVector(in))
			for path, pm := range paths {
				if got := pm.ChunkWord(in); got != want {
					t.Fatalf("%s %s: ChunkWord(%q) = %#x, want %#x", name, path, in, uint64(got), uint64(want))
				}
				for g := 0; g < m.NumStates(); g++ {
					ref := newTestBitmaps(len(buf))
					wantEnd, wantOut := referenceEmit(m, buf, lo, hi, State(g), ref)

					bm := newTestBitmaps(len(buf))
					word, out := pm.ChunkWordEmit(buf, lo, hi, State(g), bm)
					if word != want {
						t.Fatalf("%s %s guess %d: ChunkWordEmit(%q) word = %#x, want %#x",
							name, path, g, in, uint64(word), uint64(want))
					}
					if out != wantOut || !equalBitmaps(bm, ref) {
						t.Fatalf("%s %s guess %d: ChunkWordEmit(%q) emits %+v, single-lane emit %+v (bitmaps equal: %v)",
							name, path, g, in, out, wantOut, equalBitmaps(bm, ref))
					}
					if word.At(State(g)) != wantEnd {
						t.Fatalf("%s %s guess %d: guessed lane ends in %d, single-lane emit in %d", name, path, g, word.At(State(g)), wantEnd)
					}

					bm = newTestBitmaps(len(buf))
					end, out := pm.Emit(buf, lo, hi, State(g), bm)
					if end != wantEnd || out != wantOut || !equalBitmaps(bm, ref) {
						t.Fatalf("%s %s from %d: Emit(%q) = %d, %+v; reference %d, %+v (bitmaps equal: %v)",
							name, path, g, in, end, out, wantEnd, wantOut, equalBitmaps(bm, ref))
					}
				}
			}
		}
	}
}
