package stream

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/columnar"
	"repro/internal/device"
)

// testArenaPool is a plain ArenaPool over fresh arenas, tracking
// balance so tests can assert every arena is returned.
type testArenaPool struct {
	mu   sync.Mutex
	got  int
	put  int
	fail bool
}

func (p *testArenaPool) Get() *device.Arena {
	p.mu.Lock()
	p.got++
	p.mu.Unlock()
	return device.NewArena()
}

func (p *testArenaPool) Put(a *device.Arena) {
	p.mu.Lock()
	p.put++
	p.mu.Unlock()
}

// ringLineParser is the toy parser: '\n'-terminated records, one string
// column. Like the core pipeline, it publishes its boundary
// (Partition.OnBoundary) once it has found it and before it builds the
// table, and its Boundary walk mirrors the parse's complete-prefix
// rule. ambiguous publishes nothing, so every successor waits for the
// whole parse; failAt injects an error on a chosen parse, before it
// publishes; inputs records every parse's input (carry included) in
// parse order, and boundaries counts the Boundary calls.
type ringLineParser struct {
	ambiguous bool
	failAt    int // -1 disables

	mu         sync.Mutex
	parses     int
	boundaries int
	inputs     [][]byte
}

func newRingLineParser() *ringLineParser { return &ringLineParser{failAt: -1} }

func (p *ringLineParser) parse(part Partition) (PartitionResult, error) {
	input := part.Input
	p.mu.Lock()
	n := p.parses
	p.parses++
	p.inputs = append(p.inputs, append([]byte(nil), input...))
	p.mu.Unlock()
	if p.failAt >= 0 && n == p.failAt {
		return PartitionResult{}, errors.New("injected parse failure")
	}
	complete := bytes.LastIndexByte(input, '\n') + 1
	if part.Final {
		complete = len(input)
	}
	if !p.ambiguous && part.OnBoundary != nil {
		part.OnBoundary(len(input) - complete)
	}
	var lines []string
	for _, l := range bytes.Split(input[:complete], []byte{'\n'}) {
		if len(l) > 0 {
			lines = append(lines, string(l))
		}
	}
	col := columnar.FromStrings("line", lines)
	tbl, err := columnar.NewTable(columnar.NewSchema(columnar.Field{Name: "line", Type: columnar.String}),
		[]*columnar.Column{col}, nil)
	if err != nil {
		return PartitionResult{}, err
	}
	return PartitionResult{Table: tbl, CompleteBytes: complete}, nil
}

func (p *ringLineParser) ParseInFlight(arena *device.Arena, part Partition) (PartitionResult, error) {
	// Touch the arena so the footprint stats have something to sum.
	_ = device.Alloc[byte](arena, len(part.Input))
	return p.parse(part)
}

func (p *ringLineParser) Boundary(input []byte) (int, bool) {
	p.mu.Lock()
	p.boundaries++
	p.mu.Unlock()
	if p.ambiguous {
		return 0, false
	}
	return len(input) - (bytes.LastIndexByte(input, '\n') + 1), true
}

func ringTestInput(records int) ([]byte, []string) {
	var sb strings.Builder
	want := []string{}
	for i := 0; i < records; i++ {
		line := fmt.Sprintf("record-%03d-%s", i, strings.Repeat("x", i%41))
		want = append(want, line)
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	return []byte(sb.String()), want
}

func collectLines(tables []*columnar.Table) []string {
	var got []string
	for _, tbl := range tables {
		col := tbl.Column(0)
		for r := 0; r < col.Len(); r++ {
			got = append(got, string(col.StringValue(r)))
		}
	}
	return got
}

// TestRingMatchesSerialOrdered runs the ring at several depths and
// partition sizes against depth 1: identical records in identical
// order, identical partition/carry statistics.
func TestRingMatchesSerialOrdered(t *testing.T) {
	input, want := ringTestInput(200)
	for _, partSize := range []int{7, 16, 64, 100, len(input), len(input) * 2} {
		serial, err := Run(Config{PartitionSize: partSize}, newRingLineParser(), BytesSource(input))
		if err != nil {
			t.Fatal(err)
		}
		for _, inFlight := range []int{2, 3, 7} {
			pool := &testArenaPool{}
			res, err := Run(Config{
				PartitionSize: partSize,
				InFlight:      inFlight,
				Arenas:        pool,
			}, newRingLineParser(), BytesSource(input))
			if err != nil {
				t.Fatalf("part=%d inflight=%d: %v", partSize, inFlight, err)
			}
			got := collectLines(res.Tables)
			if len(got) != len(want) {
				t.Fatalf("part=%d inflight=%d: %d records, want %d", partSize, inFlight, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("part=%d inflight=%d: record %d = %q, want %q", partSize, inFlight, i, got[i], want[i])
				}
			}
			if s := res.Stats; s.EmitBusy <= 0 || s.EmitBusy > s.Duration || s.ReadBusy > s.Duration {
				t.Errorf("part=%d inflight=%d: emit busy %v, read busy %v over %v wall",
					partSize, inFlight, s.EmitBusy, s.ReadBusy, s.Duration)
			}
			var dataBytes int64
			for _, tbl := range res.Tables {
				dataBytes += tbl.DataBytes()
			}
			if res.Stats.OutputBytes != dataBytes {
				t.Errorf("part=%d inflight=%d: output bytes = %d, emitted tables hold %d",
					partSize, inFlight, res.Stats.OutputBytes, dataBytes)
			}
			if res.Stats.Partitions != serial.Stats.Partitions {
				t.Errorf("part=%d inflight=%d: partitions = %d, serial = %d",
					partSize, inFlight, res.Stats.Partitions, serial.Stats.Partitions)
			}
			if res.Stats.MaxCarryOver != serial.Stats.MaxCarryOver {
				t.Errorf("part=%d inflight=%d: max carry = %d, serial = %d",
					partSize, inFlight, res.Stats.MaxCarryOver, serial.Stats.MaxCarryOver)
			}
			if res.Stats.InputBytes != int64(len(input)) {
				t.Errorf("input bytes = %d", res.Stats.InputBytes)
			}
			if res.Stats.InFlight != inFlight {
				t.Errorf("stats in-flight = %d, want %d", res.Stats.InFlight, inFlight)
			}
			pool.mu.Lock()
			if pool.got != pool.put {
				t.Errorf("arena pool imbalance: %d checked out, %d returned", pool.got, pool.put)
			}
			if pool.got > inFlight {
				t.Errorf("ring drew %d arenas, bound is %d", pool.got, inFlight)
			}
			pool.mu.Unlock()
		}
	}
}

// TestRingSerialFallback has no partition publish its boundary: every
// successor waits for the whole parse — same records, fallbacks
// counted.
func TestRingSerialFallback(t *testing.T) {
	input, want := ringTestInput(100)
	p := newRingLineParser()
	p.ambiguous = true
	res, err := Run(Config{
		PartitionSize: 32,
		InFlight:      4,
		Arenas:        &testArenaPool{},
	}, p, BytesSource(input))
	if err != nil {
		t.Fatal(err)
	}
	got := collectLines(res.Tables)
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	if res.Stats.SerialFallbacks != res.Stats.Partitions-1 {
		t.Errorf("serial fallbacks = %d, want %d (all non-final partitions)",
			res.Stats.SerialFallbacks, res.Stats.Partitions-1)
	}
}

// TestRingDeviceBudgetThrottles runs under a budget smaller than one
// partition: the run must still complete (one partition always admitted)
// with correct output.
func TestRingDeviceBudgetThrottles(t *testing.T) {
	input, want := ringTestInput(150)
	res, err := Run(Config{
		PartitionSize: 64,
		InFlight:      4,
		DeviceBudget:  16, // far below one partition's footprint
		Arenas:        &testArenaPool{},
	}, newRingLineParser(), BytesSource(input))
	if err != nil {
		t.Fatal(err)
	}
	got := collectLines(res.Tables)
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestRingParserError injects a parse failure mid-stream: the error
// must surface, the run must not hang, and every arena must come back.
func TestRingParserError(t *testing.T) {
	input, _ := ringTestInput(200)
	for _, failAt := range []int{0, 1, 3} {
		p := newRingLineParser()
		p.failAt = failAt
		pool := &testArenaPool{}
		_, err := Run(Config{
			PartitionSize: 32,
			InFlight:      4,
			Arenas:        pool,
		}, p, BytesSource(input))
		if err == nil {
			t.Fatalf("failAt=%d: no error", failAt)
		}
		if !strings.Contains(err.Error(), "injected parse failure") {
			t.Fatalf("failAt=%d: err = %v", failAt, err)
		}
		pool.mu.Lock()
		if pool.got != pool.put {
			t.Errorf("failAt=%d: arena pool imbalance: %d out, %d back", failAt, pool.got, pool.put)
		}
		pool.mu.Unlock()
	}
}

// TestRingBoundaryParseDisagreement pins the defensive cross-check: a
// published boundary that disagrees with the finished parse must fail
// the run loudly instead of corrupting the carry chain.
func TestRingBoundaryParseDisagreement(t *testing.T) {
	input, _ := ringTestInput(100)
	p := &lyingBoundaryParser{inner: newRingLineParser()}
	_, err := Run(Config{
		PartitionSize: 32,
		InFlight:      2,
		Arenas:        &testArenaPool{},
	}, p, BytesSource(input))
	if err == nil || !strings.Contains(err.Error(), "pre-scan") {
		t.Fatalf("err = %v, want boundary disagreement", err)
	}
}

// lyingBoundaryParser publishes a boundary one byte short of the one
// its parse reports.
type lyingBoundaryParser struct{ inner *ringLineParser }

func (p *lyingBoundaryParser) ParseInFlight(arena *device.Arena, part Partition) (PartitionResult, error) {
	publish := part.OnBoundary
	part.OnBoundary = nil
	res, err := p.inner.ParseInFlight(arena, part)
	if err == nil && publish != nil {
		publish(len(part.Input) - res.CompleteBytes + 1) // off by one: the parse will disagree
	}
	return res, err
}

func (p *lyingBoundaryParser) Boundary(input []byte) (int, bool) {
	rem, _ := p.inner.Boundary(input)
	return rem + 1, true
}

// TestRingEmptyInput mirrors the depth-1 degenerate case: one empty
// final partition.
func TestRingEmptyInput(t *testing.T) {
	res, err := Run(Config{
		PartitionSize: 16,
		InFlight:      4,
		Arenas:        &testArenaPool{},
	}, newRingLineParser(), BytesSource(nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Partitions != 1 {
		t.Errorf("partitions = %d, want 1", res.Stats.Partitions)
	}
}
