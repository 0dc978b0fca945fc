package parparaw

// In-flight ring parity: the ring depth (Options.InFlight) must be
// invisible in the output. Every test here compares a deeper ring run
// against depth 1 (one slot, one arena) byte for byte — ordered emit,
// the boundary pre-scan's serial fallback (UTF-16, first-partition
// trimming), tiny partitions, and engine-level concurrency stacked on
// the ring. Run with -race.

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

// inFlightCounts mirrors convertWorkerCounts for the ring depth axis:
// depth 1, the smallest overlapping ring, whatever this host would
// default to, and a deliberately odd depth.
func inFlightCounts() []int {
	return dedupWorkerCounts(1, 2, runtime.GOMAXPROCS(0), 7)
}

// streamInFlight runs one streaming parse at the given ring depth and
// returns the full result, failing the test on any error.
func streamInFlight(t *testing.T, label string, input []byte, opts Options, partSize, inFlight int) *StreamResult {
	t.Helper()
	opts.InFlight = inFlight
	res, err := Stream(input, StreamOptions{
		Options:      opts,
		StreamConfig: StreamConfig{PartitionSize: partSize},
	})
	if err != nil {
		t.Fatalf("%s: stream failed: %v", label, err)
	}
	return res
}

// assertStreamsIdentical compares a ring run against the serial
// reference: per-partition tables (so partition boundaries match, not
// just the concatenation), header, and the carry statistics.
func assertStreamsIdentical(t *testing.T, label string, got, want *StreamResult) {
	t.Helper()
	if got.Stats.Partitions != want.Stats.Partitions {
		t.Fatalf("%s: partitions = %d, serial = %d", label, got.Stats.Partitions, want.Stats.Partitions)
	}
	if got.Stats.MaxCarryOver != want.Stats.MaxCarryOver {
		t.Errorf("%s: max carry = %d, serial = %d", label, got.Stats.MaxCarryOver, want.Stats.MaxCarryOver)
	}
	if got.Stats.InvalidInput != want.Stats.InvalidInput {
		t.Errorf("%s: invalid-input = %v, serial = %v", label, got.Stats.InvalidInput, want.Stats.InvalidInput)
	}
	if len(got.Header) != len(want.Header) {
		t.Fatalf("%s: header %v, serial %v", label, got.Header, want.Header)
	}
	for i := range want.Header {
		if got.Header[i] != want.Header[i] {
			t.Fatalf("%s: header %v, serial %v", label, got.Header, want.Header)
		}
	}
	if len(got.Tables) != len(want.Tables) {
		t.Fatalf("%s: %d tables, serial %d", label, len(got.Tables), len(want.Tables))
	}
	for i := range want.Tables {
		assertTablesIdentical(t, fmt.Sprintf("%s/partition %d", label, i), got.Tables[i], want.Tables[i])
	}
}

// TestInFlightParityStreaming sweeps the ring depth over the taxi
// workload with partitions small enough to exercise dozens of
// carry-overs: the emitted tables must be byte-identical to the serial
// pipeline's, partition for partition, in input order.
func TestInFlightParityStreaming(t *testing.T) {
	input := workload.Taxi().Generate(48<<10, 7)
	schema := schemaFromInternal(workload.Taxi().Schema)
	opts := Options{Schema: schema}
	want := streamInFlight(t, "serial", input, opts, 4<<10, 1)
	if want.NumRows() == 0 {
		t.Fatal("serial reference produced no rows")
	}
	if want.Stats.Partitions < 10 {
		t.Fatalf("only %d partitions; carry coverage too thin", want.Stats.Partitions)
	}
	for _, n := range inFlightCounts()[1:] {
		label := fmt.Sprintf("inflight=%d", n)
		got := streamInFlight(t, label, input, opts, 4<<10, n)
		if got.Stats.InFlight != n {
			t.Errorf("%s: stats in-flight = %d", label, got.Stats.InFlight)
		}
		assertStreamsIdentical(t, label, got, want)
	}
}

// TestInFlightParityQuoted runs the sweep over the quote-heavy yelp
// workload — multi-line quoted fields make the record-boundary pre-scan
// walk the quoted DFA states across partition joins.
func TestInFlightParityQuoted(t *testing.T) {
	input := workload.Yelp().Generate(32<<10, 21)
	schema := schemaFromInternal(workload.Yelp().Schema)
	opts := Options{Schema: schema}
	want := streamInFlight(t, "serial", input, opts, 2<<10, 1)
	if want.NumRows() == 0 {
		t.Fatal("serial reference produced no rows")
	}
	for _, n := range inFlightCounts()[1:] {
		label := fmt.Sprintf("yelp/inflight=%d", n)
		assertStreamsIdentical(t, label, streamInFlight(t, label, input, opts, 2<<10, n), want)
	}
}

// TestInFlightParityHeaderTinyPartitions streams a headered input with
// partitions a few records wide: the first-partition trimming keeps the
// pre-scan unsettled for partition 0 (inline parse), then the ring takes
// over. Header extraction and row counts must not depend on the depth.
func TestInFlightParityHeaderTinyPartitions(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("# leading comment\nid,name,score\n")
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&sb, "%d,row-%d,%d.5\n", i, i, i%97)
	}
	input := []byte(sb.String())
	opts := Options{HasHeader: true, SkipRows: 1}
	for _, partSize := range []int{64, 256, 1 << 10} {
		want := streamInFlight(t, fmt.Sprintf("serial/part=%d", partSize), input, opts, partSize, 1)
		if len(want.Header) != 3 {
			t.Fatalf("part=%d: header %v", partSize, want.Header)
		}
		for _, n := range inFlightCounts()[1:] {
			label := fmt.Sprintf("part=%d/inflight=%d", partSize, n)
			assertStreamsIdentical(t, label, streamInFlight(t, label, input, opts, partSize, n), want)
		}
	}
}

// TestInFlightUTF16FallsBackSerial pins the documented limitation: the
// boundary pre-scan runs on raw device bytes, so UTF-16 input (converted
// before parsing) cannot be pre-scanned and every non-final partition
// must take the serial carry path — correct output, fallbacks counted.
func TestInFlightUTF16FallsBackSerial(t *testing.T) {
	var text strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&text, "héllo-%d,\"wörld 🚀,quoted\",%d\n", i, i)
	}
	for _, tc := range []struct {
		name string
		data []byte
		opts Options
	}{
		{name: "utf16", data: encodeUTF16LE(text.String(), false), opts: Options{Encoding: UTF16LE}},
		{name: "utf16-bom", data: encodeUTF16LE(text.String(), true), opts: Options{DetectEncoding: true}},
	} {
		want := streamInFlight(t, tc.name+"/serial", tc.data, tc.opts, 1<<10, 1)
		if want.NumRows() != 200 {
			t.Fatalf("%s: serial reference rows = %d", tc.name, want.NumRows())
		}
		for _, n := range inFlightCounts()[1:] {
			label := fmt.Sprintf("%s/inflight=%d", tc.name, n)
			got := streamInFlight(t, label, tc.data, tc.opts, 1<<10, n)
			assertStreamsIdentical(t, label, got, want)
			if wantFB := got.Stats.Partitions - 1; got.Stats.SerialFallbacks != wantFB {
				t.Errorf("%s: serial fallbacks = %d, want %d (every non-final partition)",
					label, got.Stats.SerialFallbacks, wantFB)
			}
		}
	}
}

// TestInFlightConcurrentEngine hammers one Engine's streaming entry
// point from several goroutines with the ring enabled: the shared arena
// pool and plan must serve overlapping rings without cross-talk. Under
// -race this is the harness for the engine × ring concurrency layers.
func TestInFlightConcurrentEngine(t *testing.T) {
	input := workload.Taxi().Generate(24<<10, 17)
	schema := schemaFromInternal(workload.Taxi().Schema)
	want := streamInFlight(t, "serial", input, Options{Schema: schema}, 2<<10, 1)
	e, err := NewEngine(Options{Schema: schema, InFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 4
	const runs = 3
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	results := make([]*StreamResult, goroutines)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				res, err := e.StreamReader(bytes.NewReader(input), StreamConfig{PartitionSize: 2 << 10})
				if err != nil {
					errc <- fmt.Errorf("goroutine %d run %d: %w", g, i, err)
					return
				}
				results[g] = res
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	for g, res := range results {
		assertStreamsIdentical(t, fmt.Sprintf("goroutine %d", g), res, want)
	}
}

// TestInFlightValidation pins the configuration guards: negative depths
// are rejected at compile time, oversubscribed depths clamp to
// core.MaxInFlight, and modelled-time devices force depth 1
// (wall-clock concurrency would corrupt the virtual-time model).
func TestInFlightValidation(t *testing.T) {
	if _, err := NewEngine(Options{InFlight: -1}); err == nil {
		t.Fatal("NewEngine accepted negative InFlight")
	}
	if _, err := Parse([]byte("a,b\n"), Options{InFlight: -3}); err == nil {
		t.Fatal("Parse accepted negative InFlight")
	}
	input := workload.Taxi().Generate(8<<10, 3)
	schema := schemaFromInternal(workload.Taxi().Schema)

	clamped := streamInFlight(t, "clamped", input, Options{Schema: schema}, 1<<10, 10_000)
	if clamped.Stats.InFlight != core.MaxInFlight {
		t.Errorf("InFlight=10000 ran at depth %d, want clamp to %d", clamped.Stats.InFlight, core.MaxInFlight)
	}

	modelled, err := Stream(input, StreamOptions{
		Options:      Options{Schema: schema, InFlight: 4, VirtualWorkers: 8},
		StreamConfig: StreamConfig{PartitionSize: 1 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if modelled.Stats.InFlight != 1 {
		t.Errorf("modelled-time run used depth %d, want forced serial", modelled.Stats.InFlight)
	}
}

// TestFirstPartitionPrescan pins when the boundary pre-scan covers the
// first partition. A fixed-schema stream without a header or skipped
// rows settles nothing in its first partition, so no non-final
// partition takes the serial carry path; a header or an inferred schema
// still parses the first partition serially. The output matches Parse
// either way.
func TestFirstPartitionPrescan(t *testing.T) {
	spec := workload.Taxi()
	input := spec.Generate(64<<10, 5)
	schema := schemaFromInternal(spec.Schema)
	names := make([]string, schema.NumColumns())
	for i, f := range schema.Fields {
		names[i] = f.Name
	}
	withHeader := append([]byte(strings.Join(names, ",")+"\n"), input...)
	for _, tc := range []struct {
		name     string
		data     []byte
		opts     Options
		prescans bool
	}{
		{"fixed", input, Options{Schema: schema}, true},
		{"header", withHeader, Options{Schema: schema, HasHeader: true}, false},
		{"inferred", input, Options{}, false},
	} {
		whole, err := Parse(tc.data, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range inFlightCounts() {
			label := fmt.Sprintf("%s/inflight=%d", tc.name, n)
			res := streamInFlight(t, label, tc.data, tc.opts, 32<<10, n)
			if fb := res.Stats.SerialFallbacks; (fb == 0) != tc.prescans || res.Stats.Partitions < 3 {
				t.Errorf("%s: %d serial fallbacks over %d partitions, want none: %v", label, fb, res.Stats.Partitions, tc.prescans)
			}
			combined, err := res.Combined()
			if err != nil {
				t.Fatal(err)
			}
			assertTablesEqual(t, label, combined, whole.Table)
		}
	}
}

// TestFirstPartitionPrescanRowlessLead streams a fixed-schema input
// whose comment lines fill its first partitions. Those partitions parse
// in flight from the start, yet their rowless tables are dropped as
// when the first partition is parsed serially: the run emits the same
// tables, partition for partition, as the same stream with an inferred
// schema.
func TestFirstPartitionPrescanRowlessLead(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&sb, "# leading comment %d\n", i)
	}
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&sb, "%d,%d\n", i, 2*i)
		if i%50 == 0 {
			sb.WriteString("# a comment between records\n")
		}
	}
	input := []byte(sb.String())
	f := NewCSV(CSV{Delimiter: ',', Comment: '#'})
	schema := NewSchema(Field{Name: "a", Type: Int64}, Field{Name: "b", Type: Int64})
	for _, n := range inFlightCounts() {
		fixed := streamInFlight(t, "fixed", input, Options{Format: f, Schema: schema}, 256, n)
		inferred := streamInFlight(t, "inferred", input, Options{Format: f}, 256, n)
		if fixed.Stats.SerialFallbacks != 0 {
			t.Errorf("inflight=%d: %d serial fallbacks on a fixed-schema stream", n, fixed.Stats.SerialFallbacks)
		}
		if len(fixed.Tables) == 0 || fixed.Tables[0].NumRows() == 0 || len(fixed.Tables) != len(inferred.Tables) {
			t.Fatalf("inflight=%d: %d tables, the first of %d rows; inferred schema emits %d",
				n, len(fixed.Tables), fixed.Tables[0].NumRows(), len(inferred.Tables))
		}
		for i, tbl := range fixed.Tables {
			if tbl.NumRows() != inferred.Tables[i].NumRows() {
				t.Fatalf("inflight=%d: table %d has %d rows, inferred schema %d", n, i, tbl.NumRows(), inferred.Tables[i].NumRows())
			}
		}
	}
}
