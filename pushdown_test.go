package parparaw

// Differential harness for the projection/predicate pushdown of
// ScanOptions: for every tested configuration the pushdown path (rows
// pruned before partitioning, Schema fixed) and the post-materialisation
// path (the core NoPushdown, rows dropped from the finished table) must
// produce byte-identical tables — schema, column buffers, null bitmaps,
// rejected bitmap — and agreeing RowsPruned and BytesSkipped counters. The sweep covers
// all three tagging modes, projection shapes, UTF-16 input, and the
// streaming pipeline at InFlight ∈ {1, GOMAXPROCS}. An independent
// oracle leg filters an unfiltered parse by hand and compares rows, so
// the two paths cannot agree by sharing a bug.

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/workload"
)

// pushdownWhereSets returns named Where lists against the taxi schema:
// vendor_id (col 0) ∈ {1,2}, passenger_count (col 3) ∈ 1..6,
// rate_code_id (col 5) ∈ 1..6, store_and_fwd_flag (col 6) ∈ {N,Y},
// fare_amount (col 10) in [0,60).
func pushdownWhereSets() []struct {
	name  string
	where []Predicate
} {
	return []struct {
		name  string
		where []Predicate
	}{
		{"eq-half", []Predicate{Eq(0, "1")}},
		{"ne", []Predicate{Ne(6, "N")}},
		{"prefix", []Predicate{Prefix(1, "20")}},
		{"int-range", []Predicate{IntRange(5, 1, 2)}},
		{"float-range", []Predicate{FloatRange(10, 0, 9.99)}},
		{"conjunction", []Predicate{Eq(0, "1"), IntRange(3, 1, 3), NotNull(6)}},
		{"none-match", []Predicate{Eq(0, "no-such-vendor")}},
		{"all-match", []Predicate{NotNull(0)}},
		{"is-null", []Predicate{IsNull(6)}},
	}
}

// TestPushdownParity sweeps tagging modes × Where sets × projection
// shapes and asserts the pushdown and post-materialisation paths agree
// byte for byte, with identical pruning and skipped-byte counters.
func TestPushdownParity(t *testing.T) {
	spec := workload.Taxi() // constant columns: legal in every mode
	input := spec.Generate(96<<10, 7)
	schema := schemaFromInternal(spec.Schema)
	projections := []struct {
		name string
		sel  []int
	}{
		{"all-cols", nil},
		{"half-cols", []int{0, 3, 5, 6, 10, 16}},
		{"single-col", []int{10}},
		{"reordered", []int{16, 0}},
	}
	for _, mode := range []TaggingMode{RecordTagged, InlineTerminated, VectorDelimited} {
		for _, ws := range pushdownWhereSets() {
			for _, proj := range projections {
				label := fmt.Sprintf("%s/%s/%s", mode, ws.name, proj.name)
				opts := Options{Schema: schema, Mode: mode}
				opts.Scan = ScanOptions{Select: proj.sel, Where: ws.where}
				push, err := Parse(input, opts)
				if err != nil {
					t.Fatalf("%s: pushdown parse: %v", label, err)
				}
				post, err := coreEngine(t, opts, noPushdown).Parse(input)
				if err != nil {
					t.Fatalf("%s: post-hoc parse: %v", label, err)
				}
				assertTablesIdentical(t, label, push.Table, post.Table)
				if push.Stats.RowsPruned != post.Stats.RowsPruned || push.Stats.BytesSkipped != post.Stats.BytesSkipped {
					t.Fatalf("%s: RowsPruned %d, BytesSkipped %d (pushdown) vs %d, %d (post-hoc)", label,
						push.Stats.RowsPruned, push.Stats.BytesSkipped, post.Stats.RowsPruned, post.Stats.BytesSkipped)
				}
				if push.Stats.Records+push.Stats.RowsPruned != post.Stats.Records+post.Stats.RowsPruned {
					t.Fatalf("%s: surviving+pruned rows disagree", label)
				}
			}
		}
	}
}

// TestPushdownOracle checks the pushdown path against an independent
// reference: an unfiltered parse filtered by hand on materialised
// values. Restricted to predicates whose materialised value equals the
// raw field bytes (int-typed vendor_id), so the oracle needs no raw-byte
// access.
func TestPushdownOracle(t *testing.T) {
	spec := workload.Taxi()
	input := spec.Generate(64<<10, 21)
	schema := schemaFromInternal(spec.Schema)

	full, err := Parse(input, Options{Schema: schema})
	if err != nil {
		t.Fatalf("unfiltered parse: %v", err)
	}
	opts := Options{Schema: schema}
	opts.Scan.Where = []Predicate{Eq(0, "2")}
	push, err := Parse(input, opts)
	if err != nil {
		t.Fatalf("pushdown parse: %v", err)
	}

	col := full.Table.Column(0)
	var want []string
	rows := tableRows(full.Table)
	for r := 0; r < full.Table.NumRows(); r++ {
		if !col.IsNull(r) && col.ValueString(r) == "2" {
			want = append(want, rows[r])
		}
	}
	got := tableRows(push.Table)
	if len(got) != len(want) {
		t.Fatalf("pushdown kept %d rows, oracle %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: %q, oracle %q", i, got[i], want[i])
		}
	}
	if kept, pruned := push.Stats.Records, push.Stats.RowsPruned; kept+pruned != full.Stats.Records {
		t.Fatalf("kept %d + pruned %d != total %d", kept, pruned, full.Stats.Records)
	}
}

// TestPushdownParityUTF16 runs the pushdown-vs-post-hoc comparison
// through the transcode front-end: predicates are documented to see the
// transcoded UTF-8 bytes.
func TestPushdownParityUTF16(t *testing.T) {
	var text strings.Builder
	for i := 0; i < 64; i++ {
		text.WriteString(fmt.Sprintf("héllo%d,wörld 🚀,%d\nπ,🚕taxi,%d\n", i%7, i, i*3))
	}
	input := encodeUTF16LE(text.String(), false)

	whole, err := Parse(input, Options{Encoding: UTF16LE})
	if err != nil {
		t.Fatalf("whole parse: %v", err)
	}
	for _, ws := range []struct {
		name  string
		where []Predicate
	}{
		{"prefix-unicode", []Predicate{Prefix(0, "héllo")}},
		{"eq-unicode", []Predicate{Eq(0, "π")}},
		{"int-range", []Predicate{IntRange(2, 0, 50)}},
	} {
		opts := Options{Encoding: UTF16LE, Schema: whole.Table.Schema()}
		opts.Scan.Where = ws.where
		push, err := Parse(input, opts)
		if err != nil {
			t.Fatalf("%s: pushdown parse: %v", ws.name, err)
		}
		post, err := coreEngine(t, opts, noPushdown).Parse(input)
		if err != nil {
			t.Fatalf("%s: post-hoc parse: %v", ws.name, err)
		}
		assertTablesIdentical(t, "utf16/"+ws.name, push.Table, post.Table)
		if push.Stats.RowsPruned == 0 && ws.name != "int-range" {
			t.Fatalf("%s: expected pruning on the mixed corpus", ws.name)
		}
	}
}

// TestPushdownStreamingParity pins the streaming route: a streamed parse
// with Where must combine to the whole-input pushdown result, partition
// boundaries invisible, at serial and concurrent ring depths — and the
// summed Stats.RowsPruned must match the whole-input count. The
// inferred leg holds the schema the stream freezes after its first
// partition, which must index every input column although the
// partition's table holds only the selected ones.
func TestPushdownStreamingParity(t *testing.T) {
	spec := workload.Taxi()
	input := spec.Generate(192<<10, 11)

	fixed := Options{Schema: schemaFromInternal(spec.Schema)}
	fixed.Scan.Select = []int{0, 3, 10}
	fixed.Scan.Where = []Predicate{Eq(0, "1"), IntRange(3, 1, 3)}
	inferred := fixed
	inferred.Schema = nil
	for _, leg := range []struct {
		name string
		opts Options
		// partition is the streamed partition size. The inferred leg's
		// is large enough for the first partition to infer the whole
		// input's types, so the stream's frozen types match the parse's.
		partition int
	}{
		{"fixed", fixed, 16 << 10},
		{"inferred", inferred, 64 << 10},
	} {
		e, err := NewEngine(leg.opts)
		if err != nil {
			t.Fatalf("%s: %v", leg.name, err)
		}
		want, err := e.Parse(input)
		if err != nil {
			t.Fatalf("%s: whole-input parse: %v", leg.name, err)
		}
		for _, inFlight := range dedupWorkerCounts(1, runtime.GOMAXPROCS(0)) {
			label := fmt.Sprintf("%s/inflight=%d", leg.name, inFlight)
			sopts := leg.opts
			sopts.InFlight = inFlight
			res, err := StreamReader(bytes.NewReader(input), StreamOptions{
				Options:      sopts,
				StreamConfig: StreamConfig{PartitionSize: leg.partition},
			})
			if err != nil {
				t.Fatalf("%s: stream: %v", label, err)
			}
			if res.Stats.Partitions < 3 {
				t.Fatalf("%s: %d partitions; the frozen schema is not exercised", label, res.Stats.Partitions)
			}
			combined, err := res.Combined()
			if err != nil {
				t.Fatalf("%s: combined: %v", label, err)
			}
			assertTablesIdentical(t, "stream/"+label, combined, want.Table)
			if res.Stats.RowsPruned != want.Stats.RowsPruned {
				t.Fatalf("%s: streamed RowsPruned %d, whole-input %d",
					label, res.Stats.RowsPruned, want.Stats.RowsPruned)
			}
			if res.Stats.BytesSkipped == 0 {
				t.Fatalf("%s: BytesSkipped = 0 under projection+predicates", label)
			}
		}
	}
}

// TestPushdownStats pins the counters' accounting identities.
func TestPushdownStats(t *testing.T) {
	spec := workload.Taxi()
	input := spec.Generate(32<<10, 3)
	schema := schemaFromInternal(spec.Schema)

	plain, err := Parse(input, Options{Schema: schema})
	if err != nil {
		t.Fatalf("plain parse: %v", err)
	}
	// A plain parse skips only structural bytes (delimiters, quotes);
	// it must report no pruned rows.
	if plain.Stats.RowsPruned != 0 {
		t.Fatalf("plain parse pruned %d rows", plain.Stats.RowsPruned)
	}

	opts := Options{Schema: schema}
	opts.Scan.Select = []int{10}
	proj, err := Parse(input, opts)
	if err != nil {
		t.Fatalf("projection parse: %v", err)
	}
	if proj.Stats.BytesSkipped <= plain.Stats.BytesSkipped {
		t.Fatalf("single-column projection skipped %d bytes, plain parse %d — projection must skip more",
			proj.Stats.BytesSkipped, plain.Stats.BytesSkipped)
	}
	if proj.Stats.RowsPruned != 0 {
		t.Fatalf("projection alone pruned %d rows", proj.Stats.RowsPruned)
	}

	opts = Options{Schema: schema}
	opts.Scan.Where = []Predicate{Eq(0, "1")}
	pred, err := Parse(input, opts)
	if err != nil {
		t.Fatalf("predicate parse: %v", err)
	}
	if pred.Stats.RowsPruned == 0 {
		t.Fatal("vendor_id=1 pruned no rows on the two-vendor corpus")
	}
	if pred.Stats.Records+pred.Stats.RowsPruned != plain.Stats.Records {
		t.Fatalf("kept %d + pruned %d != total %d",
			pred.Stats.Records, pred.Stats.RowsPruned, plain.Stats.Records)
	}
	if int64(pred.Table.NumRows()) != pred.Stats.Records {
		t.Fatalf("Records %d != table rows %d", pred.Stats.Records, pred.Table.NumRows())
	}
}

// TestWhereValidation pins the compile-time checks: configuration
// errors in Where and the two projection spellings are reported by
// NewEngine/Parse, never deferred to a mid-parse panic.
func TestWhereValidation(t *testing.T) {
	schema := schemaFromInternal(workload.Taxi().Schema)
	cases := []struct {
		name string
		opts func() Options
		want string
	}{
		{"column-beyond-schema", func() Options {
			o := Options{Schema: schema}
			o.Scan.Where = []Predicate{Eq(17, "x")} // schema has 17 cols: 0..16
			return o
		}, "outside the schema"},
		{"negative-column", func() Options {
			o := Options{}
			o.Scan.Where = []Predicate{NotNull(-1)}
			return o
		}, "negative"},
		{"column-beyond-expected", func() Options {
			o := Options{ExpectedColumns: 3}
			o.Scan.Where = []Predicate{IntRange(5, 0, 1)}
			return o
		}, "outside the schema"},
		{"zero-op", func() Options {
			o := Options{}
			o.Scan.Where = []Predicate{{}} // zero value: PredNone
			return o
		}, "unknown predicate op"},
		{"select-conflict", func() Options {
			o := Options{SelectColumns: []int{0}}
			o.Scan.Select = []int{1}
			return o
		}, "both SelectColumns and Scan.Select"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := NewEngine(c.opts()); err == nil {
				t.Fatal("NewEngine accepted the invalid configuration")
			} else if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("NewEngine error %q does not mention %q", err, c.want)
			}
			if _, err := Parse([]byte("a,b\n"), c.opts()); err == nil {
				t.Fatal("Parse accepted the invalid configuration")
			}
		})
	}
	// Unknown column count (no Schema, no ExpectedColumns): out-of-range
	// columns cannot be checked up front and must parse cleanly — the
	// predicate then sees missing fields as empty.
	o := Options{}
	o.Scan.Where = []Predicate{IsNull(99)}
	res, err := Parse([]byte("a,b\nc,d\n"), o)
	if err != nil {
		t.Fatalf("open-schema out-of-range predicate: %v", err)
	}
	if res.Table.NumRows() != 2 {
		t.Fatalf("IsNull on a missing column kept %d rows, want 2", res.Table.NumRows())
	}
}

// TestPushdownSkipRecordsCompose pins that Where pruning and the
// SkipRecords list account separately and compose: skipped records are
// not counted as pruned, and pruning applies to the surviving records.
func TestPushdownSkipRecordsCompose(t *testing.T) {
	input := []byte("1,a\n2,b\n1,c\n2,d\n1,e\n")
	whole, err := Parse(input, Options{})
	if err != nil {
		t.Fatalf("plain parse: %v", err)
	}
	opts := Options{Schema: whole.Table.Schema(), SkipRecords: []int64{0, 3}}
	opts.Scan.Where = []Predicate{Eq(0, "1")}
	res, err := Parse(input, opts)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	// Records 0 and 3 are skipped; of the survivors (2,b) (1,c) (1,e),
	// Where keeps rows 1,c and 1,e and prunes 2,b.
	if got := tableRows(res.Table); len(got) != 2 || got[0] != "1|c" && !strings.HasPrefix(got[0], "1") {
		t.Fatalf("unexpected surviving rows %q", got)
	}
	if res.Table.NumRows() != 2 {
		t.Fatalf("kept %d rows, want 2", res.Table.NumRows())
	}
	if res.Stats.RowsPruned != 1 {
		t.Fatalf("RowsPruned %d, want 1 (skips must not count)", res.Stats.RowsPruned)
	}
}
