package parparaw

// Differential parity/race harness for the parallel convert stage: for
// every tested configuration, ConvertWorkers ∈ {1, 2, GOMAXPROCS, 7}
// must produce byte-identical tables — schema, column buffers, null
// bitmaps, and the rejected bitmap. ConvertWorkers=1 (the sequential
// per-column loop) is the reference. The suite covers all three tagging
// modes, UTF-16 inputs, schema-present vs inferred runs, reject and
// default-value policies, column selection, the streaming path, and a
// concurrent-Engine hammer; run the whole file under -race to turn the
// parity checks into a race harness for the worker pool and its arena
// shards.

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// convertWorkerCounts returns the worker counts under test, reference
// first. GOMAXPROCS is always included even when it collapses onto a
// listed count.
func convertWorkerCounts() []int {
	return dedupWorkerCounts(1, 2, runtime.GOMAXPROCS(0), 7)
}

// coreEngine compiles opts into an Engine after sets have adjusted the
// core options: the one way tests reach the settings only the core
// carries, the convert pool's width (ConvertWorkers) and the
// post-materialisation Where path (NoPushdown).
func coreEngine(tb testing.TB, opts Options, sets ...func(*core.Options)) *Engine {
	tb.Helper()
	copts, err := opts.internal(core.TrailingRecord)
	if err != nil {
		tb.Fatalf("options: %v", err)
	}
	for _, set := range sets {
		set(&copts)
	}
	plan, err := core.Compile(copts)
	if err != nil {
		tb.Fatalf("compile: %v", err)
	}
	return &Engine{plan: plan}
}

// convertWorkers sets the core ConvertWorkers, for coreEngine.
func convertWorkers(w int) func(*core.Options) {
	return func(o *core.Options) { o.ConvertWorkers = w }
}

// noPushdown selects the post-materialisation Where path, for
// coreEngine.
func noPushdown(o *core.Options) { o.NoPushdown = true }

// dedupWorkerCounts drops repeated worker counts, keeping first-seen
// order (shared by the parity harness and BenchmarkConvertWorkers).
func dedupWorkerCounts(counts ...int) []int {
	seen := map[int]bool{}
	out := counts[:0]
	for _, c := range counts {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// assertTablesIdentical compares two tables byte for byte: schema
// (names and types), row/column counts, validity, raw string bytes and
// typed values of every cell, and the rejected bitmap.
func assertTablesIdentical(t *testing.T, label string, got, want *Table) {
	t.Helper()
	if g, w := got.Schema().String(), want.Schema().String(); g != w {
		t.Fatalf("%s: schema %s, want %s", label, g, w)
	}
	if got.NumRows() != want.NumRows() || got.NumColumns() != want.NumColumns() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label,
			got.NumRows(), got.NumColumns(), want.NumRows(), want.NumColumns())
	}
	for r := 0; r < want.NumRows(); r++ {
		if g, w := got.Rejected(r), want.Rejected(r); g != w {
			t.Fatalf("%s: row %d rejected %v, want %v", label, r, g, w)
		}
	}
	if g, w := got.RejectedCount(), want.RejectedCount(); g != w {
		t.Fatalf("%s: rejected count %d, want %d", label, g, w)
	}
	for c := 0; c < want.NumColumns(); c++ {
		gc, wc := got.Column(c), want.Column(c)
		if gc.Name() != wc.Name() || gc.Type() != wc.Type() {
			t.Fatalf("%s: column %d is %s:%v, want %s:%v", label, c, gc.Name(), gc.Type(), wc.Name(), wc.Type())
		}
		if !bytes.Equal(gc.ValidityPacked(), wc.ValidityPacked()) {
			t.Fatalf("%s: column %d validity bitmap differs", label, c)
		}
		for r := 0; r < want.NumRows(); r++ {
			if gc.IsNull(r) != wc.IsNull(r) {
				t.Fatalf("%s: row %d col %d null %v, want %v", label, r, c, gc.IsNull(r), wc.IsNull(r))
			}
			if wc.IsNull(r) {
				continue
			}
			if wc.Type() == String {
				if !bytes.Equal(gc.Bytes(r), wc.Bytes(r)) {
					t.Fatalf("%s: row %d col %d bytes %q, want %q", label, r, c, gc.Bytes(r), wc.Bytes(r))
				}
			} else if g, w := gc.ValueString(r), wc.ValueString(r); g != w {
				t.Fatalf("%s: row %d col %d value %q, want %q", label, r, c, g, w)
			}
		}
	}
}

// convertParityCase is one corpus entry of the differential sweep.
type convertParityCase struct {
	name  string
	data  []byte
	opts  Options // the sweep sets ConvertWorkers through coreEngine
	modes []TaggingMode
}

func convertParityCases() []convertParityCase {
	allModes := []TaggingMode{RecordTagged, InlineTerminated, VectorDelimited}
	taggedOnly := []TaggingMode{RecordTagged}

	taxi := workload.Taxi().Generate(64<<10, 42)
	yelp := workload.Yelp().Generate(64<<10, 42)

	// Ragged inputs (RecordTagged only) with inferred types.
	var ragged bytes.Buffer
	ragged.WriteString("a,b,c,d\n")
	for i := 0; i < 500; i++ {
		switch i % 3 {
		case 0:
			ragged.WriteString("1,2\n")
		case 1:
			ragged.WriteString("3,4,5,6\n")
		default:
			ragged.WriteString("7\n")
		}
	}

	// Malformed values in typed columns: Materialize sets reject bits
	// concurrently in the parallel path, so this is the shadow-merge
	// test. Rows 0, 3, 6, … carry an unparseable int.
	var rejects bytes.Buffer
	for i := 0; i < 300; i++ {
		if i%3 == 0 {
			rejects.WriteString("notanint,2.5,x\n")
		} else {
			rejects.WriteString("17,3.25,y\n")
		}
	}
	intSchema := NewSchema(
		Field{Name: "i", Type: Int64},
		Field{Name: "f", Type: Float64},
		Field{Name: "s", Type: String},
	)

	// Inconsistent column counts + malformed values: reject bits come
	// from BOTH the tag phase (sequential, pre-pool) and the convert
	// phase (parallel shadows); the merge must preserve the union.
	var mixed bytes.Buffer
	for i := 0; i < 200; i++ {
		switch i % 4 {
		case 0:
			mixed.WriteString("1,2,3\n")
		case 1:
			mixed.WriteString("bad,5,6\n") // malformed int
		case 2:
			mixed.WriteString("7,8\n") // short record
		default:
			mixed.WriteString("9,10,11\n")
		}
	}

	// Many narrow columns: more columns than any tested worker count,
	// so the pool's claim counter wraps through many claims per worker.
	var wide bytes.Buffer
	for r := 0; r < 50; r++ {
		for c := 0; c < 40; c++ {
			if c > 0 {
				wide.WriteByte(',')
			}
			fmt.Fprintf(&wide, "%d", r*40+c)
		}
		wide.WriteByte('\n')
	}

	var utf16 strings.Builder
	for i := 0; i < 100; i++ {
		utf16.WriteString("héllo,\"wörld 🚀,quoted\",42\nπ,plain,7\n")
	}

	return []convertParityCase{
		{name: "taxi", data: taxi, opts: Options{Schema: schemaFromInternal(workload.Taxi().Schema)}, modes: allModes},
		{name: "taxi-inferred", data: taxi, modes: allModes},
		{name: "yelp-quoted", data: yelp, modes: taggedOnly},
		{name: "ragged-inferred", data: ragged.Bytes(), modes: taggedOnly},
		{name: "header", data: append([]byte("alpha,beta,gamma\n"), taxi...), opts: Options{HasHeader: true}, modes: taggedOnly},
		{name: "rejects", data: rejects.Bytes(), opts: Options{Schema: intSchema, RejectMalformed: true}, modes: allModes},
		{
			name:  "rejects-mixed",
			data:  mixed.Bytes(),
			opts:  Options{Schema: intSchema, RejectMalformed: true, RejectInconsistent: true, ExpectedColumns: 3},
			modes: taggedOnly,
		},
		{
			name: "defaults-select-skip",
			data: bytes.Repeat([]byte("1,,3,4\n"), 200),
			opts: Options{
				SelectColumns: []int{3, 1, 0},
				SkipRecords:   []int64{0, 7, 100},
				DefaultValues: map[int]string{1: "42"},
			},
			modes: taggedOnly,
		},
		{name: "wide-40-columns", data: wide.Bytes(), modes: allModes},
		{name: "utf16", data: encodeUTF16LE(utf16.String(), false), opts: Options{Encoding: UTF16LE}, modes: taggedOnly},
		{name: "utf16-bom-detect", data: encodeUTF16LE(utf16.String(), true), opts: Options{DetectEncoding: true}, modes: taggedOnly},
		{name: "empty", data: nil, modes: taggedOnly},
		{name: "single-cell", data: []byte("x"), modes: taggedOnly},
	}
}

// TestConvertWorkersParity is the core differential sweep: every worker
// count must reproduce the sequential (ConvertWorkers=1) table byte for
// byte in every tagging mode, with schemas both given and inferred.
func TestConvertWorkersParity(t *testing.T) {
	for _, tc := range convertParityCases() {
		for _, mode := range tc.modes {
			t.Run(fmt.Sprintf("%s/%s", tc.name, mode), func(t *testing.T) {
				opts := tc.opts
				opts.Mode = mode
				want, err := coreEngine(t, opts, convertWorkers(1)).Parse(tc.data)
				if err != nil {
					t.Fatalf("sequential reference: %v", err)
				}
				for _, w := range convertWorkerCounts()[1:] {
					got, err := coreEngine(t, opts, convertWorkers(w)).Parse(tc.data)
					if err != nil {
						t.Fatalf("workers=%d: %v", w, err)
					}
					label := fmt.Sprintf("workers=%d", w)
					assertTablesIdentical(t, label, got.Table, want.Table)
					if got.Stats.InvalidInput != want.Stats.InvalidInput {
						t.Fatalf("%s: InvalidInput %v, want %v", label, got.Stats.InvalidInput, want.Stats.InvalidInput)
					}
				}
			})
		}
	}
}

// TestConvertWorkersParityStreaming pushes the worker sweep through the
// streaming pipeline in every tagging mode: partition boundaries,
// carry-over re-parses, and the per-partition arena Reset (which makes
// every later partition's AllocDirty buffers genuinely recycled) must
// compose with the convert pool.
func TestConvertWorkersParityStreaming(t *testing.T) {
	input := workload.Taxi().Generate(48<<10, 7)
	schema := schemaFromInternal(workload.Taxi().Schema)
	for _, mode := range []TaggingMode{RecordTagged, InlineTerminated, VectorDelimited} {
		stream := func(workers int) *Table {
			t.Helper()
			e := coreEngine(t, Options{Schema: schema, Mode: mode}, convertWorkers(workers))
			res, err := e.Stream(input, StreamConfig{PartitionSize: 4 << 10})
			if err != nil {
				t.Fatalf("%s/workers=%d: stream failed: %v", mode, workers, err)
			}
			combined, err := res.Combined()
			if err != nil {
				t.Fatalf("%s/workers=%d: combine failed: %v", mode, workers, err)
			}
			return combined
		}
		want := stream(1)
		if want.NumRows() == 0 {
			t.Fatalf("%s: streaming reference produced no rows", mode)
		}
		for _, w := range convertWorkerCounts()[1:] {
			assertTablesIdentical(t, fmt.Sprintf("stream/%s/workers=%d", mode, w), stream(w), want)
		}
	}
}

// TestConvertWorkersRecycledArenaParity is the dirty-alloc guard: it
// parses through one shared arena that a *different* input has already
// filled (and a Reset has recycled), so the AllocDirty buffers — the
// scatter's sorted payloads and the tag vectors, in all three tagging
// modes — really do come back holding a previous run's bytes. The
// engine's pool provides that arena: it resets the poison parse's arena
// on release and hands it to the next parse. The output must still
// match a fresh-arena sequential reference byte for byte; a stale byte
// leaking out of the never-read sentinel regions would surface here.
func TestConvertWorkersRecycledArenaParity(t *testing.T) {
	spec := workload.Taxi() // constant columns: legal in every mode
	input := spec.Generate(32<<10, 42)
	poison := spec.Generate(48<<10, 99) // different bytes, larger buffers
	schema := schemaFromInternal(spec.Schema)
	for _, mode := range []TaggingMode{RecordTagged, InlineTerminated, VectorDelimited} {
		opts := Options{Schema: schema, Mode: mode}
		ref, err := coreEngine(t, opts, convertWorkers(1)).Parse(input)
		if err != nil {
			t.Fatalf("%s: fresh-arena reference: %v", mode, err)
		}
		for _, w := range convertWorkerCounts() {
			e := coreEngine(t, opts, convertWorkers(w))
			if _, err := e.Parse(poison); err != nil {
				t.Fatalf("%s/workers=%d: poison parse: %v", mode, w, err)
			}
			if n := e.idleArenaCount(); n != 1 {
				t.Fatalf("%s/workers=%d: %d idle arenas after the poison parse, want 1", mode, w, n)
			}
			res, err := e.Parse(input)
			if err != nil {
				t.Fatalf("%s/workers=%d: recycled parse: %v", mode, w, err)
			}
			assertTablesIdentical(t, fmt.Sprintf("recycled/%s/workers=%d", mode, w), res.Table, ref.Table)
		}
	}
}

// TestConvertWorkersConcurrentEngine hammers one Engine from several
// goroutines with the parallel convert stage enabled — engine-level
// concurrency (shared plan and device, pooled arenas) stacked on the
// per-run worker pool (arena shards). Under -race this is the harness
// proving the two concurrency layers compose; every result must still
// match the sequential reference.
func TestConvertWorkersConcurrentEngine(t *testing.T) {
	input := workload.Taxi().Generate(32<<10, 11)
	schema := schemaFromInternal(workload.Taxi().Schema)
	want, err := coreEngine(t, Options{Schema: schema}, convertWorkers(1)).Parse(input)
	if err != nil {
		t.Fatal(err)
	}
	e := coreEngine(t, Options{Schema: schema}, convertWorkers(4))
	const goroutines = 6
	const parses = 4
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	tables := make([]*Table, goroutines)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < parses; i++ {
				res, err := e.Parse(input)
				if err != nil {
					errc <- fmt.Errorf("goroutine %d parse %d: %w", g, i, err)
					return
				}
				tables[g] = res.Table
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	for g, tbl := range tables {
		assertTablesIdentical(t, fmt.Sprintf("goroutine %d", g), tbl, want.Table)
	}
}
