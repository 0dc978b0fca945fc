package parparaw

// Tests for the device-memory arena story: Parse vs Stream parity across
// tagging modes and encodings (partition boundaries must be invisible),
// and the allocation-regression guarantee that steady-state streaming
// partitions reuse the first partition's device buffers instead of
// growing the arena.

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/stream"
)

// parityInput describes one corpus entry for the Parse/Stream parity
// sweep.
type parityInput struct {
	name  string
	data  []byte
	opts  Options
	modes []TaggingMode
}

func parityCorpus() []parityInput {
	allModes := []TaggingMode{RecordTagged, InlineTerminated, VectorDelimited}

	var quoted bytes.Buffer
	for i := 0; i < 400; i++ {
		quoted.WriteString("17,\"quoted, with\ndelims\",3.25\n")
	}

	// Ragged column counts require RecordTagged. The widest record leads
	// so the first partition already sees the full column count (the
	// streaming pipeline freezes partition 0's schema for the rest).
	var ragged bytes.Buffer
	ragged.WriteString("a,b,c,d\n")
	for i := 0; i < 1500; i++ {
		switch i % 3 {
		case 0:
			ragged.WriteString("1,2\n")
		case 1:
			ragged.WriteString("3,4,5,6\n")
		default:
			ragged.WriteString("7\n")
		}
	}

	// UTF-16 with multi-byte and surrogate-pair content; odd partition
	// sizes split code units and surrogate pairs across partitions.
	var utf16 strings.Builder
	for i := 0; i < 200; i++ {
		utf16.WriteString("héllo,wörld 🚀,42\nπ,ÿFD,7\n")
	}

	return []parityInput{
		{name: "quoted", data: quoted.Bytes(), modes: allModes},
		{name: "ragged", data: ragged.Bytes(), modes: []TaggingMode{RecordTagged}},
		{
			name:  "utf16",
			data:  encodeUTF16LE(utf16.String(), false),
			opts:  Options{Encoding: UTF16LE},
			modes: allModes,
		},
		{
			// The BOM exists only at the head of the first partition; the
			// detected encoding must be frozen for all later partitions.
			name:  "utf16-bom-detect",
			data:  encodeUTF16LE(utf16.String(), true),
			opts:  Options{DetectEncoding: true},
			modes: []TaggingMode{RecordTagged},
		},
	}
}

// TestStreamParityAcrossModes checks that Stream(...).Combined() is
// cell-for-cell identical to Parse for every tagging mode on quoted,
// ragged, and UTF-16 inputs — partition boundaries (including ones that
// split quoted fields, records, and UTF-16 code units) must not change
// the output.
func TestStreamParityAcrossModes(t *testing.T) {
	for _, in := range parityCorpus() {
		for _, mode := range in.modes {
			t.Run(in.name+"/"+mode.String(), func(t *testing.T) {
				opts := in.opts
				opts.Mode = mode
				whole, err := Parse(in.data, opts)
				if err != nil {
					t.Fatal(err)
				}
				// 1021 is odd and prime: partitions end mid-record, mid-quote
				// and mid-code-unit.
				streamed, err := Stream(in.data, StreamOptions{
					Options:      opts,
					StreamConfig: StreamConfig{PartitionSize: 1021},
				})
				if err != nil {
					t.Fatal(err)
				}
				if streamed.Stats.Partitions < 3 {
					t.Fatalf("partitions = %d, want several", streamed.Stats.Partitions)
				}
				combined, err := streamed.Combined()
				if err != nil {
					t.Fatal(err)
				}
				if got, want := combined.NumRows(), whole.Table.NumRows(); got != want {
					t.Fatalf("rows = %d, want %d", got, want)
				}
				if got, want := combined.NumColumns(), whole.Table.NumColumns(); got != want {
					t.Fatalf("columns = %d, want %d", got, want)
				}
				for c := 0; c < whole.Table.NumColumns(); c++ {
					w, g := whole.Table.Column(c), combined.Column(c)
					for r := 0; r < whole.Table.NumRows(); r++ {
						if w.IsNull(r) != g.IsNull(r) {
							t.Fatalf("row %d col %d: null %v vs %v", r, c, g.IsNull(r), w.IsNull(r))
						}
						if !w.IsNull(r) && w.ValueString(r) != g.ValueString(r) {
							t.Fatalf("row %d col %d: %q, want %q", r, c, g.ValueString(r), w.ValueString(r))
						}
					}
				}
				if streamed.Stats.DeviceBytes <= 0 {
					t.Errorf("DeviceBytes = %d, want > 0", streamed.Stats.DeviceBytes)
				}
			})
		}
	}
}

// largeAlloc is the acceptance threshold: steady-state partitions must
// not perform any allocation of this size or larger.
const largeAlloc = 1 << 20

// TestParseSteadyStateArenaFixed parses the same input repeatedly
// through one arena (reset between runs, as the streaming pipeline
// does) and checks the arena stops acquiring memory after the first
// run. Small slack is allowed for scheduling-dependent scan slabs; any
// recycled-buffer regression on an O(input) buffer trips the 1 MiB
// bound immediately.
func TestParseSteadyStateArenaFixed(t *testing.T) {
	input := bytes.Repeat([]byte("123,abcdefgh,4.5,true\n"), 100_000) // ~2.2 MB
	arena := device.NewArena()
	opts := core.Options{Arena: arena}
	if _, err := core.Parse(input, opts); err != nil {
		t.Fatal(err)
	}
	afterFirst := arena.ReservedBytes()
	for i := 0; i < 4; i++ {
		arena.Reset()
		if _, err := core.Parse(input, opts); err != nil {
			t.Fatal(err)
		}
	}
	growth := arena.ReservedBytes() - afterFirst
	if growth >= largeAlloc {
		t.Fatalf("arena grew %d bytes across steady-state runs (limit %d); reserved %d after first run",
			growth, largeAlloc, afterFirst)
	}
	total, reused := arena.Allocs()
	if reused == 0 || reused < total/2 {
		t.Errorf("arena reuse too low: %d of %d allocations recycled", reused, total)
	}
}

// steadyStateParser is a bare stream.Parser over one compiled plan: the
// plan's own boundary pre-scan finalises every carry, so every
// partition is dispatched to the ring's worker. reserved records the
// arena's reserved bytes after each partition's parse.
type steadyStateParser struct {
	plan     *core.Plan
	reserved []int64
}

func (p *steadyStateParser) Boundary(input []byte) (int, bool) {
	return p.plan.ScanRemainder(input), true
}

func (p *steadyStateParser) ParseInFlight(arena *device.Arena, part stream.Partition) (stream.PartitionResult, error) {
	exec := p.plan.BaseExec(arena)
	exec.Trailing = core.TrailingRemainder
	if part.Final {
		exec.Trailing = core.TrailingRecord
	}
	res, err := p.plan.Execute(part.Input, exec)
	if err != nil {
		return stream.PartitionResult{}, err
	}
	p.reserved = append(p.reserved, arena.ReservedBytes())
	return stream.PartitionResult{Table: res.Table, CompleteBytes: len(part.Input) - res.Remainder}, nil
}

// countingArenas is a stream.ArenaPool over fresh arenas that keeps
// every arena it hands out.
type countingArenas struct{ drawn []*device.Arena }

func (p *countingArenas) Get() *device.Arena {
	a := device.NewArena()
	p.drawn = append(p.drawn, a)
	return a
}

func (p *countingArenas) Put(*device.Arena) {}

// TestStreamSteadyStateNoLargeAllocs drives the real streaming pipeline
// (internal/stream.Run at depth 1, as the public Stream runs with
// InFlight 1) over many partitions and checks that the run draws
// exactly one arena and that no partition after the first acquires a
// large (>= 1 MiB) device buffer: the §4.4 fixed-footprint property.
func TestStreamSteadyStateNoLargeAllocs(t *testing.T) {
	input := bytes.Repeat([]byte("123,abcdefgh,4.5,true\n"), 400_000) // ~8.8 MB -> 8 partitions
	plan, err := core.Compile(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	parser := &steadyStateParser{plan: plan}
	pool := &countingArenas{}
	res, err := stream.Run(stream.Config{PartitionSize: 1 << 20, InFlight: 1, Arenas: pool},
		parser, stream.BytesSource(input))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Partitions < 4 {
		t.Fatalf("partitions = %d, want several", res.Stats.Partitions)
	}
	if len(pool.drawn) != 1 {
		t.Fatalf("depth 1 drew %d arenas, want exactly one", len(pool.drawn))
	}
	arena := pool.drawn[0]
	afterFirst := parser.reserved[0]
	for i := 1; i < len(parser.reserved); i++ {
		if grew := parser.reserved[i] - parser.reserved[i-1]; grew >= largeAlloc {
			t.Errorf("partition %d reserved %d new device bytes (limit %d)", i, grew, largeAlloc)
		}
	}
	growth := arena.ReservedBytes() - afterFirst
	if growth >= largeAlloc {
		t.Fatalf("arena grew %d bytes after the first partition (limit %d)", growth, largeAlloc)
	}
	if res.Stats.DeviceBytes != arena.PeakBytes() {
		t.Errorf("stats DeviceBytes = %d, arena peak = %d", res.Stats.DeviceBytes, arena.PeakBytes())
	}
	// The whole run's peak footprint must stay at the first partition's
	// level: recycling, not accumulation across partitions.
	if res.Stats.DeviceBytes >= afterFirst+largeAlloc {
		t.Errorf("device footprint %d exceeds first partition's %d; partitions are not reusing buffers",
			res.Stats.DeviceBytes, afterFirst)
	}
}

// TestTablesOwnTheirBytes pins that a returned table holds its values:
// the record-tagged index points into the caller's input and into arena
// memory (the partition buffers and the gathered CSSs), so a table must
// not change when the caller overwrites the input after Engine.Parse,
// overwrites the reader's buffer after StreamReader, or runs the same
// engine again over other bytes, recycling its arenas. Both inputs hold
// string columns read from the input in place and a column of escaped
// fields gathered into a CSS of its own.
func TestTablesOwnTheirBytes(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&sb, "%d,name-%d,\"say \"\"%d\"\" twice\",%d.5\n", i, i, i, i)
	}
	text := sb.String()
	schema := NewSchema(Field{Name: "id", Type: Int64}, Field{Name: "name", Type: String},
		Field{Name: "quote", Type: String}, Field{Name: "x", Type: Float64})
	eng, err := NewEngine(Options{Schema: schema})
	if err != nil {
		t.Fatal(err)
	}
	clobber := func(b []byte) {
		for i := range b {
			if b[i] != '\n' && b[i] != ',' && b[i] != '"' {
				b[i] = '7'
			}
		}
	}

	input := []byte(text)
	res, err := eng.Parse(input)
	if err != nil {
		t.Fatal(err)
	}
	want := tableRows(res.Table)
	clobber(input)
	if _, err := eng.Parse(input); err != nil {
		t.Fatal(err)
	}
	if got := tableRows(res.Table); !slices.Equal(got, want) {
		t.Fatalf("Parse: table changed after its input was overwritten and reparsed: row 0 %q, want %q", got[0], want[0])
	}

	src := []byte(text)
	streamed, err := eng.StreamReader(bytes.NewReader(src), StreamConfig{PartitionSize: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	combined, err := streamed.Combined()
	if err != nil {
		t.Fatal(err)
	}
	parts := make([][]string, len(streamed.Tables))
	for i, tbl := range streamed.Tables {
		parts[i] = tableRows(tbl)
	}
	clobber(src)
	if _, err := eng.StreamReader(bytes.NewReader(src), StreamConfig{PartitionSize: 2 << 10}); err != nil {
		t.Fatal(err)
	}
	for i, tbl := range streamed.Tables {
		if got := tableRows(tbl); !slices.Equal(got, parts[i]) {
			t.Fatalf("StreamReader: partition %d's table changed after the source was overwritten and restreamed", i)
		}
	}
	assertTablesEqual(t, "streamed", combined, res.Table)
}
