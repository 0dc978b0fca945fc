package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/columnar"
	"repro/internal/convert"
	"repro/internal/css"
	"repro/internal/device"
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

// poisonArena resets a with every recycled int64 buffer filled with -1.
// It takes the int64 buffers off the free lists, smallest first, until a
// take finds none left (and reserves one element, recycled with the
// rest by the final Reset).
func poisonArena(a *device.Arena) {
	a.Reset()
	for {
		_, reused := a.Allocs()
		buf := device.AllocDirty[int64](a, 1)
		buf = buf[:cap(buf)]
		for i := range buf {
			buf[i] = -1
		}
		if _, r := a.Allocs(); r == reused {
			break
		}
	}
	a.Reset()
}

// runPoisoned is runToPartition on buffers a first run of the same case
// left behind, poisoned: every field offset the move pass fails to
// write reads -1, never a stale value that happens to be right.
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

// TestFusedScatterMatchesOracle pins the fused tag-scatter to the
// paper's per-symbol tagging plus stable radix partition: sortedSyms,
// sortedAux, hist, colStart, the kept and skipped symbol counts, the
// reject vector, and recOffs against the scanned run-length encoding of
// the sorted record tags must be identical across the tagging modes,
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
					compareWithOracle(t, name, p)
				}
			}
		}
	}
}

func compareWithOracle(t *testing.T, name string, p *pipeline) {
	t.Helper()
	want := oracleTagPartition(p)
	if len(p.sortedSyms) != want.kept || p.stats.BytesSkipped != int64(len(p.input)-p.remainder-want.kept) {
		t.Fatalf("%s: %d symbols kept, %d skipped; oracle keeps %d of %d", name, len(p.sortedSyms), p.stats.BytesSkipped, want.kept, len(p.input))
	}
	if !slices.Equal(p.hist, want.hist) || !slices.Equal(p.colStart, want.colStart) {
		t.Fatalf("%s: hist %v colStart %v, oracle %v %v", name, p.hist, p.colStart, want.hist, want.colStart)
	}
	if !slices.Equal(p.sortedSyms, want.syms) {
		t.Fatalf("%s: sortedSyms differ at %d", name, firstDiff(p.sortedSyms, want.syms))
	}
	if !slices.Equal(p.recOffs, want.recOffs) {
		t.Fatalf("%s: recOffs differ at %d", name, firstDiff(p.recOffs, want.recOffs))
	}
	if !slices.Equal(p.sortedAux, want.aux) {
		t.Fatalf("%s: sortedAux differ at %d", name, firstDiff(p.sortedAux, want.aux))
	}
	if !slices.Equal(p.rejected, want.rejected) {
		t.Fatalf("%s: rejected differ at %d", name, firstDiff(p.rejected, want.rejected))
	}
}

// TestFusedScatterSymsOnly pins, by hand, the payload combinations of the
// delimiter-keeping modes: InlineTerminated moves symbols alone (each
// field closed by the terminator), VectorDelimited symbols plus the
// delimiter vector; neither fills recOffs.
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
			if !slices.Equal(p.sortedAux, tc.aux) {
				t.Errorf("%v/chunk%d: sortedAux %v, want %v", tc.mode, chunk, p.sortedAux, tc.aux)
			}
			if p.recOffs != nil {
				t.Errorf("%v/chunk%d: recOffs filled in a syms-only mode", tc.mode, chunk)
			}
			if !slices.Equal(p.hist, []int64{6, 4, 0}) || !slices.Equal(p.colStart, []int64{0, 6, 10}) {
				t.Errorf("%v/chunk%d: hist %v colStart %v, want [6 4 0] [0 6 10]", tc.mode, chunk, p.hist, p.colStart)
			}
		}
	}
}

// TestFusedScatterSentinelUnmoved pins the partial-move contract that
// projection pushdown relies on: symbols of unselected columns are
// counted under the sentinel key but never moved, the kept columns pack
// into a dense prefix of exactly colStart[sentinel] symbols, and each
// selected column's CSS and field offsets are the ones a parse without
// selection builds for that source column.
func TestFusedScatterSentinelUnmoved(t *testing.T) {
	const cols = 4
	input := fusedInput(rand.New(rand.NewSource(37)), 50, cols, false, 0)
	for _, chunk := range []int{1, 7, 4096} {
		opts := Options{
			Device:    device.New(device.Config{Workers: 4}),
			ChunkSize: chunk,
			Mode:      css.RecordTagged,
		}
		full := runPoisoned(t, device.NewArena(), input, opts)
		opts.SelectColumns = []int{3, 1}
		sel := runPoisoned(t, device.NewArena(), input, opts)
		if full == nil || sel == nil {
			t.Fatalf("chunk%d: run finished before partitioning", chunk)
		}
		s := sel.sentinel
		if int64(len(sel.sortedSyms)) != sel.colStart[s] || sel.hist[s] != int64(len(input))-sel.colStart[s] {
			t.Fatalf("chunk%d: %d symbols moved, sentinel start %d count %d of %d", chunk, len(sel.sortedSyms), sel.colStart[s], sel.hist[s], len(input))
		}
		if sel.stats.BytesSkipped != sel.hist[s] {
			t.Fatalf("chunk%d: BytesSkipped %d, sentinel count %d", chunk, sel.stats.BytesSkipped, sel.hist[s])
		}
		wantSkipped := full.hist[full.sentinel]
		for c := 0; c < cols; c++ {
			k, kf := sel.colMap[c], full.colMap[c]
			if k == s {
				wantSkipped += full.hist[kf]
				continue
			}
			lo, hi := sel.colStart[k], sel.colStart[k]+sel.hist[k]
			flo, fhi := full.colStart[kf], full.colStart[kf]+full.hist[kf]
			n := sel.numOutRecords + 1
			offs, foffs := sel.recOffs[int64(k)*n:int64(k+1)*n], full.recOffs[int64(kf)*n:int64(kf+1)*n]
			if !slices.Equal(sel.sortedSyms[lo:hi], full.sortedSyms[flo:fhi]) || !slices.Equal(offs, foffs) {
				t.Fatalf("chunk%d: column %d's CSS differs from the unselected parse's", chunk, c)
			}
		}
		if sel.hist[s] != wantSkipped {
			t.Fatalf("chunk%d: sentinel count %d, want %d (unselected columns plus structure)", chunk, sel.hist[s], wantSkipped)
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
// the fused tag-scatter: the tag stage's arena growth on a 1 MiB
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
		// Measured with the move pass writing one 8-byte offset per
		// field, which is the CSS index: yelp 2.14×, taxi 3.59× the
		// input (size-class rounding included). With one 8-byte length
		// per field scanned into a separate array of starts the peak
		// was 2.29× and 5.72×; with a 4-byte record tag per kept symbol,
		// 6.30× and 9.84×.
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
