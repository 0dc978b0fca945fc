package parparaw

// Native fuzz target: arbitrary bytes through the parallel pipeline
// must (a) never panic, (b) agree with the sequential FSM oracle, and
// (c) for valid inputs, survive a write/re-parse round trip.
// Run with: go test -fuzz FuzzParse -fuzztime 30s

import (
	"bytes"
	"testing"

	"repro/internal/baseline"
)

// chunkSizeFromFuzz maps a fuzzed byte onto a chunk size. The low three
// quarters keep the historic mapping onto 1..64, so committed seeds keep
// their meaning. The top quarter reaches chunks with interior bitmap
// words and the default: 0 (DefaultChunkSize, 1 KiB on a real device)
// and sizes from 65 to 4096 on either side of the 64-byte word and the
// 1 KiB default.
func chunkSizeFromFuzz(raw uint8) int {
	if raw < 192 {
		return int(raw%64) + 1
	}
	return []int{0, 65, 127, 128, 129, 511, 1023, 1024, 1025, 2048, 4095, 4096}[int(raw)%12]
}

// convertWorkersFromFuzz maps a fuzzed byte onto the convert worker
// counts worth exercising: the sequential loop, the smallest real pool,
// and a pool wider than most fuzzed inputs have columns.
func convertWorkersFromFuzz(raw uint8) int {
	return []int{1, 2, 4}[raw%3]
}

// inFlightFromFuzz maps a fuzzed byte onto the ring depths worth
// exercising: depth 1, the smallest overlapping ring, a typical
// depth, and one wider than most fuzzed inputs have partitions.
func inFlightFromFuzz(raw uint8) int {
	return []int{1, 2, 4, 7}[raw%4]
}

// whereFromFuzz derives a Where list from fuzzed bytes: the predicate
// shape from raw, the column from col, and the comparison operand from
// the input's own bytes (so equality/prefix predicates sometimes match).
func whereFromFuzz(raw uint8, col int, input []byte) []Predicate {
	operand := ""
	if len(input) > 0 {
		end := 1 + int(raw)%3
		if end > len(input) {
			end = len(input)
		}
		operand = string(input[:end])
	}
	switch raw % 7 {
	case 0:
		return []Predicate{NotNull(col)}
	case 1:
		return []Predicate{IsNull(col)}
	case 2:
		return []Predicate{Eq(col, operand)}
	case 3:
		return []Predicate{Ne(col, operand)}
	case 4:
		return []Predicate{Prefix(col, operand)}
	case 5:
		return []Predicate{IntRange(col, -1000, 1000)}
	default:
		return []Predicate{FloatRange(col, -1e6, 1e6), NotNull(col)}
	}
}

// FuzzStreamReader parses the same bytes twice — whole-input Parse and
// StreamReader with a fuzzed partition size, chunk size, convert worker
// count, and in-flight ring depth — and asserts identical tables:
// partition boundaries, carry-over, the reader chunking, the convert
// pool, and the cross-partition ring must all be invisible in the
// output. The schema is pinned from the whole-input parse so
// per-partition type inference (documented to see only the first
// partition) does not enter the comparison.
func FuzzStreamReader(f *testing.F) {
	f.Add([]byte("a,b\nc,d\n"), uint16(5), uint8(31), uint8(0), uint8(0))
	f.Add([]byte(`1,"x,y",2`+"\n"), uint16(3), uint8(7), uint8(1), uint8(1))
	f.Add([]byte("\"q\"\"q\",\"multi\nline\"\n"), uint16(8), uint8(4), uint8(2), uint8(2))
	f.Add([]byte("no trailing newline"), uint16(6), uint8(64), uint8(1), uint8(3))
	f.Add([]byte("\"unterminated"), uint16(2), uint8(5), uint8(0), uint8(2))
	f.Add([]byte("wide,record,with,many,columns\nshort\n"), uint16(9), uint8(16), uint8(2), uint8(1))
	f.Add(bytes.Repeat([]byte(`7,"a,b",x`+"\n"+`"q""\nq",,9`+"\n"), 40), uint16(200), uint8(198), uint8(1), uint8(2))

	f.Fuzz(func(t *testing.T, input []byte, partRaw uint16, chunkRaw, workersRaw, inFlightRaw uint8) {
		partSize := int(partRaw%256) + 1
		chunk := chunkSizeFromFuzz(chunkRaw)
		workers := convertWorkersFromFuzz(workersRaw)
		whole, err := coreEngine(t, Options{ChunkSize: chunk}, convertWorkers(workers)).Parse(input)
		if err != nil {
			t.Fatalf("Parse failed on %q: %v", input, err)
		}
		opts := Options{
			ChunkSize: chunk,
			Schema:    whole.Table.Schema(),
			InFlight:  inFlightFromFuzz(inFlightRaw),
		}
		// A fuzzed Where list rides along on every streamed parse (the
		// high partition-size byte picks the shape), pruning rows across
		// partition boundaries; the whole-input reference below evaluates
		// the same predicates on the post-materialisation path.
		if cols := whole.Table.NumColumns(); cols > 0 {
			opts.Scan.Where = whereFromFuzz(uint8(partRaw>>8), int(chunkRaw)%cols, input)
		}
		streamed, err := coreEngine(t, opts, convertWorkers(workers)).StreamReader(bytes.NewReader(input), StreamConfig{
			PartitionSize: partSize,
			Bus:           NewBus(BusConfig{TimeScale: 1e9, Latency: -1}),
		})
		if err != nil {
			t.Fatalf("StreamReader failed on %q (part=%d): %v", input, partSize, err)
		}
		combined, err := streamed.Combined()
		if err != nil {
			t.Fatalf("Combined failed on %q: %v", input, err)
		}
		// Re-parse with the pinned schema — and the sequential convert
		// loop, and Where on the post-materialisation path — so the
		// streamed pushdown output is checked against the reference
		// path's materialisation.
		want, err := coreEngine(t, opts, convertWorkers(1), noPushdown).Parse(input)
		if err != nil {
			t.Fatalf("re-Parse failed on %q: %v", input, err)
		}
		if combined.NumRows() != want.Table.NumRows() {
			t.Fatalf("rows %d vs %d on %q (part=%d, chunk=%d, workers=%d)",
				combined.NumRows(), want.Table.NumRows(), input, partSize, chunk, workers)
		}
		a, b := tableRows(combined), tableRows(want.Table)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("row %d: %q vs %q on %q (part=%d, chunk=%d, workers=%d)",
					i, a[i], b[i], input, partSize, chunk, workers)
			}
		}
	})
}

func FuzzParse(f *testing.F) {
	f.Add([]byte("a,b\nc,d\n"), uint8(31), uint8(0), uint8(0))
	f.Add([]byte(`1,"x,y",2`+"\n"), uint8(7), uint8(1), uint8(1))
	f.Add([]byte("\"q\"\"q\",\"multi\nline\"\n"), uint8(4), uint8(2), uint8(2))
	f.Add([]byte(",,\n,,\n"), uint8(16), uint8(3), uint8(1))
	f.Add([]byte("no trailing newline"), uint8(64), uint8(0), uint8(2))
	f.Add([]byte("\"unterminated"), uint8(5), uint8(1), uint8(0))
	f.Add([]byte{0xFF, 0x00, 0x7F, '\n'}, uint8(8), uint8(2), uint8(1))
	// Numeric and temporal shapes, so the oracle and the round trip
	// cross every field parser.
	f.Add([]byte("1.5,2018-06-15 13:45:09.5,142.35\n-7,.5,-73.987654\n"), uint8(31), uint8(4), uint8(0))
	// Multi-word chunks (top quarter of the chunk byte): 65 bytes and
	// the 0 default, over records that straddle bitmap words.
	f.Add(bytes.Repeat([]byte(`1,"x,y",2.5`+"\n"+`"a""\nb",,c`+"\n"), 30), uint8(193), uint8(0), uint8(1))
	f.Add(bytes.Repeat([]byte(`1,"x,y",2.5`+"\n"+`"a""\nb",,c`+"\n"), 30), uint8(192), uint8(2), uint8(2))

	f.Fuzz(func(t *testing.T, input []byte, chunkRaw, fastRaw, workersRaw uint8) {
		chunk := chunkSizeFromFuzz(chunkRaw)
		// fastRaw's low bits switch off the fused tables (1) and the
		// skip-ahead (2), its other bits are unused, and workersRaw sweeps
		// the convert pool, so the sequential oracle below catches any
		// divergence between the fast and reference parse paths and any
		// nondeterminism in the parallel convert stage.
		workers := convertWorkers(convertWorkersFromFuzz(workersRaw))
		res, err := coreEngine(t, withFastPath(Options{ChunkSize: chunk}, fastRaw&1 == 0, fastRaw&2 == 0), workers).Parse(input)
		if err != nil {
			t.Fatalf("Parse failed on %q: %v", input, err)
		}
		seqTbl, err := baseline.NewSequential().Load(input, res.Table.Schema().internal())
		if err != nil {
			t.Fatalf("sequential failed on %q: %v", input, err)
		}
		seq := &Table{t: seqTbl}
		if res.Table.NumRows() != seq.NumRows() {
			t.Fatalf("rows %d vs sequential %d on %q", res.Table.NumRows(), seq.NumRows(), input)
		}
		a, b := tableRows(res.Table), tableRows(seq)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("row %d: %q vs sequential %q on %q", i, a[i], b[i], input)
			}
		}

		// Pushdown parity: the same parse with a fuzzed Where list must
		// be byte-identical whether the rows are pruned inside the plan
		// (Schema fixed, pushdown) or dropped from the materialised table
		// (core NoPushdown, the reference path).
		if cols := res.Table.NumColumns(); cols > 0 {
			popts := Options{ChunkSize: chunk, Schema: res.Table.Schema()}
			popts.Scan.Where = whereFromFuzz(fastRaw, int(chunkRaw)%cols, input)
			push, err := coreEngine(t, popts, workers).Parse(input)
			if err != nil {
				t.Fatalf("pushdown Parse failed on %q: %v", input, err)
			}
			post, err := coreEngine(t, popts, workers, noPushdown).Parse(input)
			if err != nil {
				t.Fatalf("post-hoc Parse failed on %q: %v", input, err)
			}
			if push.Table.NumRows() != post.Table.NumRows() {
				t.Fatalf("pushdown rows %d vs post-hoc %d on %q (where=%v)",
					push.Table.NumRows(), post.Table.NumRows(), input, popts.Scan.Where)
			}
			e, g := tableRows(push.Table), tableRows(post.Table)
			for i := range e {
				if e[i] != g[i] {
					t.Fatalf("pushdown row %d: %q vs post-hoc %q on %q", i, e[i], g[i], input)
				}
			}
			if push.Stats.RowsPruned != post.Stats.RowsPruned {
				t.Fatalf("RowsPruned %d (pushdown) vs %d (post-hoc) on %q",
					push.Stats.RowsPruned, post.Stats.RowsPruned, input)
			}
		}

		// Round trip: rewriting the parsed table as RFC 4180 and parsing
		// it again must reproduce the table (only when the input was
		// valid CSV — invalid inputs lose data at the INV sink).
		if res.Stats.InvalidInput || res.Table.NumRows() == 0 {
			return
		}
		var out bytes.Buffer
		if err := WriteCSV(&out, res.Table); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		again, err := Parse(out.Bytes(), Options{Schema: res.Table.Schema(), HasHeader: true})
		if err != nil {
			t.Fatalf("re-parse failed on %q: %v", out.Bytes(), err)
		}
		if again.Table.NumRows() != res.Table.NumRows() {
			t.Fatalf("round trip rows %d vs %d (via %q)", again.Table.NumRows(), res.Table.NumRows(), out.Bytes())
		}
		c, d := tableRows(again.Table), tableRows(res.Table)
		for i := range c {
			if c[i] != d[i] {
				t.Fatalf("round trip row %d: %q vs %q (via %q)", i, c[i], d[i], out.Bytes())
			}
		}
	})
}
