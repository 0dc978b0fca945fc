package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/columnar"
	"repro/internal/convert"
	"repro/internal/css"
	"repro/internal/device"
	"repro/internal/dfa"
	"repro/internal/workload"
)

// runToPartition compiles opts and runs the kernel stages on input up to
// and including partitionScatter, returning the pipeline with the fused
// tag-scatter's outputs, or nil when a stage finished the run early
// (nothing to partition). The arena is reset first: a recycled arena
// hands out dirty buffers, so an output position the move pass fails to
// write shows up as a stale byte (see runPoisoned).
func runToPartition(t *testing.T, arena *device.Arena, input []byte, opts Options) *pipeline {
	t.Helper()
	plan, err := Compile(opts)
	if err != nil {
		t.Fatal(err)
	}
	o := plan.Options()
	arena.Reset()
	o.Arena = arena
	p := &pipeline{Options: o, input: input}
	for _, st := range kernelPipeline {
		if st.name == "convertColumns" {
			break
		}
		o.Arena.SetPhase(st.name)
		if err := st.run(p); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if p.table != nil {
			return nil
		}
	}
	return p
}

// poisonArena resets a with every recycled int64 buffer filled with -1
// and every recycled uint32 buffer with its maximum.
func poisonArena(a *device.Arena) {
	a.Reset()
	poison[int64](a, -1)
	poison[uint32](a, math.MaxUint32)
	a.Reset()
}

// poison fills a's recycled buffers of T with v. It takes them off the
// free lists, smallest first, until a take finds none left (and
// reserves one element, recycled with the rest by the caller's Reset).
func poison[T any](a *device.Arena, v T) {
	for {
		_, reused := a.Allocs()
		buf := device.AllocDirty[T](a, 1)
		buf = buf[:cap(buf)]
		for i := range buf {
			buf[i] = v
		}
		if _, r := a.Allocs(); r == reused {
			return
		}
	}
}

// runPoisoned is runToPartition on buffers a first run of the same case
// left behind, poisoned: every field start or length the index walk
// fails to write reads -1 or the largest uint32, never a stale value
// that happens to be right.
func runPoisoned(t *testing.T, arena *device.Arena, input []byte, opts Options) *pipeline {
	t.Helper()
	runToPartition(t, arena, input, opts)
	poisonArena(arena)
	return runToPartition(t, arena, input, opts)
}

// oracleScatter is what the fused tag-scatter must produce, computed the
// way the paper's tag and partition phases do it.
type oracleScatter struct {
	syms           []byte
	recOffs        []int64 // per column: 0, then the running sum of the sorted record tags' run lengths
	aux            []bool
	hist, colStart []int64
	kept           int
	rejected       []bool
}

// oracleTagPartition tags every symbol of p's input with its column key
// (the sentinel for every symbol no output column receives) and its
// mode payload in one sequential walk — no chunks, tiles or run fills —
// and then partitions the tags stably with the paper's LSD radix sort.
// In RecordTagged mode it run-length encodes every column's sorted
// record tags into per-record lengths and scans them into the column's
// field offsets, as §3.3 does. It reads only the stage outputs before
// tagging: the bitmaps, the column map and record counts, and the
// Where drops.
func oracleTagPartition(p *pipeline) oracleScatter {
	n := len(p.input)
	colTags := make([]uint32, n)
	recTags := make([]uint32, n)
	payload := slices.Clone(p.input) // InlineTerminated: delimiters become the terminator
	aux := make([]bool, n)
	var out oracleScatter
	if p.RejectInconsistent || p.RejectMalformed {
		out.rejected = make([]bool, p.numOutRecords)
	}
	skipped := make(map[int64]bool)
	for _, r := range p.SkipRecords {
		skipped[r] = true
	}
	irrelevant := func(rec int64) bool {
		return skipped[rec] || rec >= p.numRecords || (p.pushdown && p.dropped[rec])
	}
	keyOf := func(rec int64, col int) uint32 {
		if irrelevant(rec) || col >= len(p.colMap) {
			return p.sentinel
		}
		return p.colMap[col]
	}
	checkCols := func(rec, outRec int64, col int) {
		if p.RejectInconsistent && !irrelevant(rec) && col+1 != p.numColumns {
			out.rejected[outRec] = true
		}
	}

	var rec, outRec int64 // outRec counts the relevant records before rec
	col := 0
	for i := 0; i < n; i++ {
		isRec, isField := p.bitmaps.Record.Get(i), p.bitmaps.Field.Get(i)
		switch {
		case isRec || isField:
			colTags[i] = p.sentinel
			if p.Mode != css.RecordTagged {
				colTags[i] = keyOf(rec, col)
				payload[i] = p.Terminator
				aux[i] = colTags[i] != p.sentinel
			}
			if isField {
				col++
				continue
			}
			checkCols(rec, outRec, col)
			if !irrelevant(rec) {
				outRec++
			}
			rec++
			col = 0
		case p.bitmaps.Control.Get(i):
			colTags[i] = p.sentinel
		default:
			colTags[i] = keyOf(rec, col)
			recTags[i] = uint32(outRec)
		}
	}
	if p.trailing {
		checkCols(rec, outRec, col)
	}

	d := device.New(device.Config{Workers: 3})
	numKeys := int(p.sentinel) + 1
	perm := radixSortPermutation(d, "oracle", colTags, 0)
	out.hist = radixHistogram(d, "oracle", colTags, numKeys)
	out.colStart = make([]int64, numKeys)
	for k := 1; k < numKeys; k++ {
		out.colStart[k] = out.colStart[k-1] + out.hist[k-1]
	}
	out.kept = n - int(out.hist[p.sentinel])
	gather := func(dst, src []byte) {
		radixGather(d, "oracle", dst, src, perm)
	}
	out.syms = make([]byte, n)
	if p.Mode == css.InlineTerminated {
		gather(out.syms, payload)
	} else {
		gather(out.syms, p.input)
	}
	out.syms = out.syms[:out.kept]
	switch p.Mode {
	case css.RecordTagged:
		recs := make([]uint32, n)
		radixGather(d, "oracle", recs, recTags, perm)
		numOut := p.numOutRecords
		lens := make([]int64, int64(p.sentinel)*numOut)
		for k := int64(0); k < int64(p.sentinel); k++ {
			lo, hi := out.colStart[k], out.colStart[k]+out.hist[k]
			for i := lo; i < hi; {
				j := i + 1
				for j < hi && recs[j] == recs[i] {
					j++
				}
				lens[k*numOut+int64(recs[i])] += j - i
				i = j
			}
		}
		out.recOffs = make([]int64, int64(p.sentinel)*(numOut+1))
		for k := int64(0); k < int64(p.sentinel); k++ {
			offs := out.recOffs[k*(numOut+1) : (k+1)*(numOut+1)]
			for r, l := range lens[k*numOut : (k+1)*numOut] {
				offs[r+1] = offs[r] + l
			}
		}
	case css.VectorDelimited:
		out.aux = make([]bool, n)
		radixGather(d, "oracle", out.aux, aux, perm)
		out.aux = out.aux[:out.kept]
	}
	return out
}

// fusedInput builds a CSV input whose records, quoted fields and
// trailing record cross the 4 KiB tile boundaries: short numeric
// fields, quoted fields holding delimiters, newlines and escaped quotes,
// empty fields, and every few records a quoted field longer than a
// tile. ragged draws each record's column count from 1..cols+2; the
// tail, when longer than a tile, makes the last tile hold nothing but
// the unterminated trailing record (or, under TrailingRemainder, nothing
// any column receives).
func fusedInput(rng *rand.Rand, records, cols int, ragged bool, tail int) []byte {
	var b strings.Builder
	field := func() {
		switch r := rng.Intn(40); {
		case r < 18:
			fmt.Fprintf(&b, "%d", rng.Intn(100000))
		case r < 28:
			b.WriteString(`"a,b` + strings.Repeat("x", rng.Intn(40)) + "\n\"\"q\"\"\"")
		case r < 34:
			// empty field
		case r < 35:
			b.WriteString(`"` + strings.Repeat("long,\n", 700+rng.Intn(100)) + `"`)
		default:
			b.WriteString(strings.Repeat("t", rng.Intn(300)))
		}
	}
	for r := 0; r < records; r++ {
		n := cols
		if ragged {
			n = 1 + rng.Intn(cols+2)
		}
		for c := 0; c < n; c++ {
			if c > 0 {
				b.WriteByte(',')
			}
			field()
		}
		b.WriteByte('\n')
	}
	if tail > 0 {
		// An unterminated record: cols fields, the last one tail bytes.
		for c := 0; c < cols-1; c++ {
			fmt.Fprintf(&b, "%d,", c)
		}
		b.WriteString(`"` + strings.Repeat("z,\n", tail/3) + `"`)
	}
	return []byte(b.String())
}

// TestFusedScatterMatchesOracle pins the tag and partition phases to
// the paper's per-symbol tagging plus stable radix partition: the kept
// and skipped symbol counts, the reject vector, sortedSyms, sortedAux,
// hist and colStart of the mark modes, and every RecordTagged field read
// through the index against the sorted symbols cut at the scanned
// run-length encoding of the sorted record tags must be identical across
// the tagging modes,
// column selection, Where pushdown, SkipRecords, RejectInconsistent on
// ragged input, chunk sizes that make a tile 4096, 585, 132 and 1
// chunks, and inputs whose records, quoted fields and trailing record
// cross tile boundaries. Every case runs on poisoned buffers.
func TestFusedScatterMatchesOracle(t *testing.T) {
	const cols = 4
	rng := rand.New(rand.NewSource(12))
	type input struct {
		name     string
		data     []byte
		ragged   bool
		trailing TrailingMode
	}
	inputs := []input{
		{"regular", fusedInput(rng, 60, cols, false, 0), false, TrailingRecord},
		{"long-trailing", fusedInput(rng, 40, cols, false, 9000), false, TrailingRecord},
		{"remainder-tail", fusedInput(rng, 40, cols, false, 9000), false, TrailingRemainder},
		{"ragged", fusedInput(rng, 80, cols, true, 0), true, TrailingRecord},
		// Thousands of one-field records: the last tiles hold record
		// delimiters and no data at all.
		{"blank-tail", append(fusedInput(rng, 30, cols, true, 0), strings.Repeat("\n", 9000)...), true, TrailingRecord},
	}
	stringSchema := make([]columnar.Field, cols)
	for i := range stringSchema {
		stringSchema[i] = columnar.Field{Name: fmt.Sprintf("c%d", i), Type: columnar.String}
	}
	type variant struct {
		name string
		set  func(o *Options)
	}
	variants := []variant{
		{"plain", func(o *Options) {}},
		{"select", func(o *Options) { o.SelectColumns = []int{3, 1} }},
		{"where", func(o *Options) {
			o.Schema = columnar.NewSchema(stringSchema...)
			o.Where = []convert.Predicate{{Column: 0, Op: convert.PredNotNull}}
		}},
		{"skip", func(o *Options) { o.SkipRecords = []int64{0, 2, 3, 17, 39} }},
		{"reject", func(o *Options) { o.RejectInconsistent = true }},
		{"all", func(o *Options) {
			o.Schema = columnar.NewSchema(stringSchema...)
			o.Where = []convert.Predicate{{Column: 1, Op: convert.PredNotNull}}
			o.SelectColumns = []int{2, 0}
			o.SkipRecords = []int64{1, 5}
			o.RejectInconsistent = true
		}},
	}
	arena := device.NewArena()
	for _, in := range inputs {
		for _, mode := range []css.Mode{css.RecordTagged, css.InlineTerminated, css.VectorDelimited} {
			if in.ragged && mode != css.RecordTagged {
				continue // the inline and vector CSSs need a constant column count
			}
			for _, v := range variants {
				for _, chunk := range []int{1, 7, 31, 4096} {
					name := fmt.Sprintf("%s/%v/%s/chunk%d", in.name, mode, v.name, chunk)
					opts := Options{
						Device:    device.New(device.Config{Workers: 4}),
						ChunkSize: chunk,
						Mode:      mode,
						Trailing:  in.trailing,
					}
					if in.ragged {
						opts.ExpectedColumns = cols
					}
					v.set(&opts)
					p := runPoisoned(t, arena, in.data, opts)
					if p == nil {
						t.Fatalf("%s: run finished before partitioning", name)
					}
					compareWithOracle(t, name, p, arena)
				}
			}
		}
	}
}

// compareWithOracle checks p against the oracle: the kept and skipped
// byte counts and the reject vector in every mode; the CSSs, hist,
// colStart and aux marks in the mark modes; and in RecordTagged mode
// every kept field's bytes, read through the column's index (gathered
// from arena when the column has a field of several data runs).
func compareWithOracle(t *testing.T, name string, p *pipeline, arena *device.Arena) {
	t.Helper()
	want := oracleTagPartition(p)
	if p.stats.BytesSkipped != int64(len(p.input)-p.remainder-want.kept) {
		t.Fatalf("%s: %d bytes skipped; oracle keeps %d of %d", name, p.stats.BytesSkipped, want.kept, len(p.input))
	}
	if !slices.Equal(p.rejected, want.rejected) {
		t.Fatalf("%s: rejected differ at %d", name, firstDiff(p.rejected, want.rejected))
	}
	if p.Mode == css.RecordTagged {
		compareFields(t, name, p, arena, want)
		return
	}
	if len(p.sortedSyms) != want.kept {
		t.Fatalf("%s: %d symbols kept, oracle %d", name, len(p.sortedSyms), want.kept)
	}
	if !slices.Equal(p.hist, want.hist) || !slices.Equal(p.colStart, want.colStart) {
		t.Fatalf("%s: hist %v colStart %v, oracle %v %v", name, p.hist, p.colStart, want.hist, want.colStart)
	}
	if !slices.Equal(p.sortedSyms, want.syms) {
		t.Fatalf("%s: sortedSyms differ at %d", name, firstDiff(p.sortedSyms, want.syms))
	}
	if got := auxBools(p); !slices.Equal(got, want.aux) {
		t.Fatalf("%s: sortedAux differ at %d", name, firstDiff(got, want.aux))
	}
}

// compareFields checks every kept field of a RecordTagged run, read
// through its column's index, against the oracle's partitioned CSS cut
// at its scanned record offsets.
func compareFields(t *testing.T, name string, p *pipeline, arena *device.Arena, want oracleScatter) {
	t.Helper()
	n := p.numOutRecords
	for k := int64(0); k < int64(p.sentinel); k++ {
		ix, err := p.columnIndex(int(k), arena)
		if err != nil {
			t.Fatalf("%s: column %d: %v", name, k, err)
		}
		offs := want.recOffs[k*(n+1) : (k+1)*(n+1)]
		for r := int64(0); r < n; r++ {
			w := want.syms[want.colStart[k]+offs[r] : want.colStart[k]+offs[r+1]]
			if got := ix.Field(int(r)); !slices.Equal(got, w) {
				t.Fatalf("%s: column %d record %d = %q, oracle %q", name, k, r, got, w)
			}
		}
	}
}

// auxBools reads the VectorDelimited delimiter bitmap as one flag per
// CSS byte, nil in the other modes.
func auxBools(p *pipeline) []bool {
	if p.sortedAux == nil {
		return nil
	}
	out := make([]bool, p.sortedAux.Len())
	for i := range out {
		out[i] = p.sortedAux.Get(i)
	}
	return out
}

// TestFusedScatterSymsOnly pins, by hand, the payload combinations of the
// delimiter-keeping modes: InlineTerminated moves symbols alone (each
// field closed by the terminator), VectorDelimited symbols plus the
// delimiter bitmap; neither writes the RecordTagged field index.
func TestFusedScatterSymsOnly(t *testing.T) {
	input := []byte("ab,c\nde,f\n")
	cases := []struct {
		mode css.Mode
		syms string
		aux  []bool
	}{
		{css.InlineTerminated, "ab;de;c;f;", nil},
		{css.VectorDelimited, "ab,de,c\nf\n", []bool{false, false, true, false, false, true, false, true, false, true}},
	}
	arena := device.NewArena()
	for _, tc := range cases {
		for _, chunk := range []int{1, 3, 4096} {
			p := runPoisoned(t, arena, input, Options{
				Device:     device.New(device.Config{Workers: 2}),
				ChunkSize:  chunk,
				Mode:       tc.mode,
				Terminator: ';',
			})
			if p == nil {
				t.Fatalf("%v/chunk%d: run finished before partitioning", tc.mode, chunk)
			}
			if string(p.sortedSyms) != tc.syms {
				t.Errorf("%v/chunk%d: sortedSyms %q, want %q", tc.mode, chunk, p.sortedSyms, tc.syms)
			}
			if got := auxBools(p); !slices.Equal(got, tc.aux) {
				t.Errorf("%v/chunk%d: sortedAux %v, want %v", tc.mode, chunk, got, tc.aux)
			}
			if p.fieldStarts != nil || p.fieldLens != nil {
				t.Errorf("%v/chunk%d: field index written in a syms-only mode", tc.mode, chunk)
			}
			if !slices.Equal(p.hist, []int64{6, 4, 0}) || !slices.Equal(p.colStart, []int64{0, 6, 10}) {
				t.Errorf("%v/chunk%d: hist %v colStart %v, want [6 4 0] [0 6 10]", tc.mode, chunk, p.hist, p.colStart)
			}
		}
	}
}

// TestFusedScatterSentinelUnmoved pins the partial index that
// projection pushdown relies on in RecordTagged mode: the fields of
// unselected columns are never indexed and count as skipped with the
// structure, and each selected column's fields read the same bytes as a
// parse without selection reads for that source column.
func TestFusedScatterSentinelUnmoved(t *testing.T) {
	const cols = 4
	input := fusedInput(rand.New(rand.NewSource(37)), 50, cols, false, 0)
	for _, chunk := range []int{1, 7, 4096} {
		opts := Options{
			Device:    device.New(device.Config{Workers: 4}),
			ChunkSize: chunk,
			Mode:      css.RecordTagged,
		}
		fullArena, selArena := device.NewArena(), device.NewArena()
		full := runPoisoned(t, fullArena, input, opts)
		opts.SelectColumns = []int{3, 1}
		sel := runPoisoned(t, selArena, input, opts)
		if full == nil || sel == nil {
			t.Fatalf("chunk%d: run finished before partitioning", chunk)
		}
		n := sel.numOutRecords
		if len(sel.fieldStarts)*cols != len(full.fieldStarts)*2 || len(sel.fieldLens) != len(sel.fieldStarts) {
			t.Fatalf("chunk%d: %d starts and %d lengths for 2 columns, %d starts for %d", chunk, len(sel.fieldStarts), len(sel.fieldLens), len(full.fieldStarts), cols)
		}
		wantSkipped := full.stats.BytesSkipped
		for c := 0; c < cols; c++ {
			k, kf := sel.colMap[c], full.colMap[c]
			fix, err := full.columnIndex(int(kf), fullArena)
			if err != nil {
				t.Fatal(err)
			}
			if k == sel.sentinel {
				for r := 0; r < int(n); r++ {
					wantSkipped += int64(fix.Lens[r])
				}
				continue
			}
			ix, err := sel.columnIndex(int(k), selArena)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < int(n); r++ {
				if !slices.Equal(ix.Field(r), fix.Field(r)) {
					t.Fatalf("chunk%d: column %d record %d = %q, unselected parse %q", chunk, c, r, ix.Field(r), fix.Field(r))
				}
			}
		}
		if sel.stats.BytesSkipped != wantSkipped {
			t.Fatalf("chunk%d: BytesSkipped %d, want %d (unselected columns plus structure)", chunk, sel.stats.BytesSkipped, wantSkipped)
		}
	}
}

// TestFusedScatterArenaRecycles pins the fixed footprint of the fused
// tag-scatter: on a recycled arena, a steady-state run up to the
// partition stage reserves no new device memory after the first run.
func TestFusedScatterArenaRecycles(t *testing.T) {
	input := fusedInput(rand.New(rand.NewSource(31)), 40, 4, false, 0)
	for _, mode := range []css.Mode{css.RecordTagged, css.InlineTerminated, css.VectorDelimited} {
		arena := device.NewArena()
		opts := Options{Device: device.New(device.Config{Workers: 2}), Mode: mode}
		runToPartition(t, arena, input, opts)
		reserved := arena.ReservedBytes()
		for i := 0; i < 3; i++ {
			runToPartition(t, arena, input, opts)
		}
		if got := arena.ReservedBytes(); got != reserved {
			t.Fatalf("%v: steady-state tag-scatter grew the arena: %d -> %d", mode, reserved, got)
		}
	}
}

func firstDiff[T comparable](a, b []T) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestFusedScatterNoPerSymbolBuffers is the footprint regression test of
// the tag and partition phases: the tag stage's arena growth on a 1 MiB
// RecordTagged parse stays below a quarter of the input, so no O(n)
// per-symbol tag buffer is left, and the whole parse's device peak per
// input byte stays under a bound that taxi exceeds with a per-symbol
// record-tag buffer, and also with per-field lengths scanned into a
// separate index.
func TestFusedScatterNoPerSymbolBuffers(t *testing.T) {
	for _, spec := range []workload.Spec{workload.Yelp(), workload.Taxi()} {
		input := spec.Generate(1<<20, 7)
		arena := device.NewArena()
		res, err := Parse(input, Options{Schema: spec.Schema, Arena: arena})
		if err != nil {
			t.Fatal(err)
		}
		n := int64(len(input))
		if grow := arena.PhasePeak("tagSymbols") - arena.PhasePeak("offsetScans"); grow >= n/4 {
			t.Errorf("%s: tag stage grew the arena by %d bytes on a %d-byte input; per-symbol tag buffer?", spec.Name, grow, n)
		}
		// Measured with the index walk writing each field's 8-byte
		// input start and 4-byte length, and no CSS but the gathered
		// one of yelp's escaped text column: yelp 2.14×, taxi 3.46× the
		// input (size-class rounding included). With the move pass's
		// CSS and one 8-byte offset per field it was 2.14× and 3.59×;
		// with one 8-byte length per field scanned into a separate
		// array of starts, 2.29× and 5.72×; with a 4-byte record tag per
		// kept symbol, 6.30× and 9.84×.
		if per := float64(res.Stats.DeviceBytes) / float64(n); per > 5 {
			t.Errorf("%s: device peak %.2f× input, want ≤ 5×", spec.Name, per)
		}
	}
}

// TestRecordOffsetsEdges pins the move pass's exactly-once offset rule
// at its edges, cell by cell, on poisoned buffers: ragged records short
// of the column count (the record delimiter ends the columns they do not
// reach) and past it (clamped), blank lines, trailing records without a
// closing delimiter (the end of input ends their open field and the
// columns they do not reach), trailing records pruned by SkipRecords or
// by a Where on either filter path, and projections that drop the last
// column. The hand-written tables are what encoding/csv reads, padded
// with empty fields to the schema's column count; the generated case,
// whose ragged records and blank lines cross tiles, is checked against
// referenceParse padded the same way.
func TestRecordOffsetsEdges(t *testing.T) {
	notEmpty := func(col int) []convert.Predicate {
		return []convert.Predicate{{Column: col, Op: convert.PredNotNull}}
	}
	var big strings.Builder
	rng := rand.New(rand.NewSource(23))
	for r := 0; r < 3000; r++ {
		for c, n := 0, rng.Intn(6); c < n; c++ {
			if c > 0 {
				big.WriteByte(',')
			}
			big.WriteString(strings.Repeat("v", rng.Intn(9)))
		}
		big.WriteByte('\n')
	}
	big.WriteString("x,y") // an unterminated trailing record
	cases := []struct {
		name     string
		in       string
		cols     int // the schema's column count
		skip     []int64
		where    []convert.Predicate
		noPush   bool
		sel      []int
		trailing TrailingMode
		want     [][]string // nil: referenceParse, padded
	}{
		{name: "short-ragged", in: "a,b,c\nd\ne,f\ng,h,i\n", cols: 3,
			want: [][]string{{"a", "b", "c"}, {"d", "", ""}, {"e", "f", ""}, {"g", "h", "i"}}},
		{name: "long-ragged", in: "a,b\nc,d,e,f\ng\nh,i\n", cols: 2,
			want: [][]string{{"a", "b"}, {"c", "d"}, {"g", ""}, {"h", "i"}}},
		{name: "blank-lines", in: "\na,b\n\n\nc,d\n\n", cols: 2,
			want: [][]string{{"", ""}, {"a", "b"}, {"", ""}, {"", ""}, {"c", "d"}, {"", ""}}},
		{name: "trailing-field-delimiter", in: "a,b\nc,", cols: 2,
			want: [][]string{{"a", "b"}, {"c", ""}}},
		{name: "trailing-short", in: "a,b,c\nd,e", cols: 3,
			want: [][]string{{"a", "b", "c"}, {"d", "e", ""}}},
		{name: "trailing-long", in: "a,b\nc,d,e", cols: 2,
			want: [][]string{{"a", "b"}, {"c", "d"}}},
		{name: "trailing-skipped", in: "a,b\nc,d\ne,f", cols: 2, skip: []int64{0, 2},
			want: [][]string{{"c", "d"}}},
		{name: "trailing-dropped", in: "a,b\n,x\nc,d\n,f", cols: 2, where: notEmpty(0),
			want: [][]string{{"a", "b"}, {"c", "d"}}},
		{name: "trailing-dropped-post", in: "a,b\n,x\nc,d\n,f", cols: 2, where: notEmpty(0), noPush: true,
			want: [][]string{{"a", "b"}, {"c", "d"}}},
		{name: "trailing-short-dropped", in: "a,b\nc,d\ne", cols: 2, where: notEmpty(1),
			want: [][]string{{"a", "b"}, {"c", "d"}}},
		{name: "select-drops-last", in: "a,b,c\nd,e,f\ng,h,i", cols: 3, sel: []int{1, 0},
			want: [][]string{{"b", "a"}, {"e", "d"}, {"h", "g"}}},
		{name: "select-drops-last-ragged", in: "a,b,c\nd\ne,f,g\nh", cols: 3, sel: []int{1, 0},
			want: [][]string{{"b", "a"}, {"", "d"}, {"f", "e"}, {"", "h"}}},
		{name: "remainder", in: "a,b\nc\nd,e", cols: 2, trailing: TrailingRemainder,
			want: [][]string{{"a", "b"}, {"c", ""}}},
		{name: "generated", in: big.String(), cols: 4},
	}
	arena := device.NewArena()
	for _, c := range cases {
		want := c.want
		if want == nil {
			for _, row := range referenceParse(t, c.in) {
				row = append(row, make([]string, c.cols)...)
				want = append(want, row[:c.cols])
			}
		}
		fields := make([]columnar.Field, c.cols)
		for i := range fields {
			fields[i] = columnar.Field{Name: fmt.Sprintf("c%d", i), Type: columnar.String}
		}
		for _, chunk := range []int{1, 7, 31, 1024} {
			opts := Options{
				Device:        device.New(device.Config{Workers: 4}),
				ChunkSize:     chunk,
				Schema:        columnar.NewSchema(fields...),
				SkipRecords:   c.skip,
				Where:         c.where,
				NoPushdown:    c.noPush,
				SelectColumns: c.sel,
				Trailing:      c.trailing,
				Arena:         arena,
			}
			name := fmt.Sprintf("%s/chunk%d", c.name, chunk)
			if _, err := Parse([]byte(c.in), opts); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			poisonArena(arena)
			res, err := Parse([]byte(c.in), opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := tableStrings(res.Table); !slices.EqualFunc(got, want, slices.Equal) {
				t.Fatalf("%s: got %q, want %q", name, got, want)
			}
		}
	}
}

// TestFieldIndexEdges pins the RecordTagged index walk at the edges of
// its lookback and gather, on poisoned buffers, against the per-symbol
// tag and stable partition oracle at chunk sizes 1, 7, 31 and 1024:
// fields of several data runs that cross tiles (RFC 4180 "" escapes
// with LF and CRLF endings, weblog \" escapes, JSONL strings), single-
// and several-run fields longer than several tiles, a column with
// exactly one field of several runs, and a projection that drops the
// column of several-run fields. multi lists the output columns that
// must be gathered into a CSS of their own.
func TestFieldIndexEdges(t *testing.T) {
	jsonl, err := dfa.NewJSONL(dfa.JSONLOptions{})
	if err != nil {
		t.Fatal(err)
	}
	crlf := dfa.NewCSV(dfa.CSVOptions{CarriageReturn: true})
	var csvLong, csvCRLF, oneMulti strings.Builder
	for r := 0; r < 40; r++ {
		fmt.Fprintf(&csvLong, "%d,", r)
		switch r % 4 {
		case 0: // several runs, longer than a tile
			csvLong.WriteString(`"` + strings.Repeat(`xy""`, 1100+r) + `"`)
		case 1: // one run, longer than several tiles
			csvLong.WriteString(`"` + strings.Repeat("z,\n", 3000+r) + `"`)
		case 2: // several short runs
			csvLong.WriteString(`"a""b""c"`)
		}
		fmt.Fprintf(&csvLong, ",%d\n", r*r)
		fmt.Fprintf(&csvCRLF, "%d,\"q\"\"%s\"\"\",%d\r\n", r, strings.Repeat("w", 37*r), r)
		quoted := strings.Repeat("v", r)
		if r == 17 {
			quoted = `o""ne`
		}
		fmt.Fprintf(&oneMulti, "%d,\"%s\",x%d\n", r, quoted, r)
	}
	weblog := workload.Weblog().Generate(24<<10, 3)
	weblog = append(weblog, `10.0.0.1 2020-01-02 03:04:05 GET /x 200 9 0.5 "`+strings.Repeat(`ab\"`, 2500)+"\"\n"...)
	cases := []struct {
		name  string
		in    []byte
		m     *dfa.Machine
		sel   []int
		multi []int
	}{
		{"csv-long", []byte(csvLong.String()), nil, nil, []int{1}},
		{"csv-long-trailing", []byte(strings.TrimSuffix(csvLong.String(), "\n")), nil, nil, []int{1}},
		{"csv-long-drop-multi", []byte(csvLong.String()), nil, []int{2, 0}, nil},
		{"csv-crlf", []byte(csvCRLF.String()), crlf, nil, []int{1}},
		{"one-multi", []byte(oneMulti.String()), nil, nil, []int{1}},
		{"weblog", weblog, dfa.Weblog(), nil, []int{8}},
		{"jsonl", workload.JSONLines().Generate(24<<10, 4), jsonl, nil, nil},
	}
	arena := device.NewArena()
	for _, c := range cases {
		for _, chunk := range []int{1, 7, 31, 1024} {
			name := fmt.Sprintf("%s/chunk%d", c.name, chunk)
			p := runPoisoned(t, arena, c.in, Options{
				Device:        device.New(device.Config{Workers: 4}),
				Machine:       c.m,
				ChunkSize:     chunk,
				SelectColumns: c.sel,
			})
			if p == nil {
				t.Fatalf("%s: run finished before partitioning", name)
			}
			var multi []int
			for k, m := range p.multiRun {
				if m != 0 {
					multi = append(multi, k)
				}
			}
			if !slices.Equal(multi, c.multi) {
				t.Fatalf("%s: columns %v hold fields of several runs, want %v", name, multi, c.multi)
			}
			compareWithOracle(t, name, p, arena)
		}
	}
}
