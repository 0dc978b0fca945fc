package stream

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/columnar"
	"repro/internal/device"
	"repro/parparawerr"
)

// TestPublishedBoundaryNoWalk pins that the carry chain comes from the
// parses alone: a fault-free run of many partitions never calls
// Parser.Boundary, at any depth, and no partition waits for its
// predecessor's whole parse.
func TestPublishedBoundaryNoWalk(t *testing.T) {
	input, want := ringTestInput(300)
	for _, inFlight := range []int{1, 2, 4} {
		p := newRingLineParser()
		res, err := Run(Config{PartitionSize: 256, InFlight: inFlight, Arenas: &testArenaPool{}}, p, BytesSource(input))
		if err != nil {
			t.Fatalf("inflight=%d: %v", inFlight, err)
		}
		if res.Stats.Partitions < 8 {
			t.Fatalf("inflight=%d: %d partitions, want at least 8", inFlight, res.Stats.Partitions)
		}
		if p.boundaries != 0 {
			t.Errorf("inflight=%d: %d Boundary calls on a fault-free run, want 0", inFlight, p.boundaries)
		}
		if res.Stats.SerialFallbacks != 0 {
			t.Errorf("inflight=%d: %d serial fallbacks, want 0", inFlight, res.Stats.SerialFallbacks)
		}
		if got := collectLines(res.Tables); !slices.Equal(got, want) {
			t.Fatalf("inflight=%d: %d records differ from the input's %d", inFlight, len(got), len(want))
		}
	}
}

// overlapParser holds every non-final partition's parse, after it has
// published its boundary, until the next partition's parse has begun.
type overlapParser struct {
	*ringLineParser
	mu      sync.Mutex
	entered map[int]chan struct{}
}

// gate is closed when partition i's parse begins.
func (p *overlapParser) gate(i int) chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	ch, ok := p.entered[i]
	if !ok {
		ch = make(chan struct{})
		p.entered[i] = ch
	}
	return ch
}

func (p *overlapParser) ParseInFlight(arena *device.Arena, part Partition) (PartitionResult, error) {
	close(p.gate(part.Index))
	res, err := p.ringLineParser.ParseInFlight(arena, part)
	if err != nil || part.Final {
		return res, err
	}
	select {
	case <-p.gate(part.Index + 1):
		return res, nil
	case <-time.After(10 * time.Second):
		return res, fmt.Errorf("partition %d published its boundary, but partition %d never started", part.Index, part.Index+1)
	}
}

// TestPublishedBoundaryOverlap pins that partition i+1's parse starts
// while partition i's is still running, with no walk in between: each
// parse publishes its boundary and then blocks until its successor has
// entered ParseInFlight, so the run fails unless the ring dispatches
// the successor on the published boundary alone.
func TestPublishedBoundaryOverlap(t *testing.T) {
	input, want := ringTestInput(200)
	p := &overlapParser{ringLineParser: newRingLineParser(), entered: make(map[int]chan struct{})}
	res, err := Run(Config{PartitionSize: 300, InFlight: 2, Arenas: &testArenaPool{}}, p, BytesSource(input))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Partitions < 8 {
		t.Fatalf("%d partitions, want at least 8", res.Stats.Partitions)
	}
	if p.boundaries != 0 {
		t.Errorf("%d Boundary calls, want 0", p.boundaries)
	}
	if got := collectLines(res.Tables); !slices.Equal(got, want) {
		t.Fatalf("%d records differ from the input's %d", len(got), len(want))
	}
}

// failingParser fails one partition's parse, by index, with a
// quarantinable error before it publishes anything; decline makes its
// Boundary walk decline. It records each parse's base and input.
type failingParser struct {
	*ringLineParser
	failIdx int
	decline bool

	mu     sync.Mutex
	bases  map[int]int64
	inputs map[int][]byte
}

func (p *failingParser) ParseInFlight(arena *device.Arena, part Partition) (PartitionResult, error) {
	p.mu.Lock()
	p.bases[part.Index] = part.Base
	p.inputs[part.Index] = append([]byte(nil), part.Input...)
	p.mu.Unlock()
	if part.Index == p.failIdx {
		return PartitionResult{}, &parparawerr.MalformedError{Partition: part.Index, Detail: "injected before publishing"}
	}
	return p.ringLineParser.ParseInFlight(arena, part)
}

func (p *failingParser) Boundary(input []byte) (int, bool) {
	rem, ok := p.ringLineParser.Boundary(input)
	return rem, ok && !p.decline
}

// TestPublishedBoundaryQuarantineRecovery fails partition 2 before it
// publishes, under SkipBadPartitions. When Boundary answers, one walk
// recovers the boundary: every other partition parses the input of the
// fault-free run and emits its table. When Boundary declines, the
// pending carry is dropped with the partition: partition 3 starts at
// the first byte after partition 2's input, with nothing carried.
func TestPublishedBoundaryQuarantineRecovery(t *testing.T) {
	input, _ := ringTestInput(200)
	const failIdx = 2
	cfg := Config{PartitionSize: 128, SkipBadPartitions: true}
	ref := &failingParser{ringLineParser: newRingLineParser(), failIdx: -1,
		bases: map[int]int64{}, inputs: map[int][]byte{}}
	want, err := Run(cfg, ref, BytesSource(input))
	if err != nil {
		t.Fatal(err)
	}
	for _, decline := range []bool{false, true} {
		for _, inFlight := range []int{1, 2, 4} {
			name := fmt.Sprintf("decline=%v/inflight=%d", decline, inFlight)
			p := &failingParser{ringLineParser: newRingLineParser(), failIdx: failIdx, decline: decline,
				bases: map[int]int64{}, inputs: map[int][]byte{}}
			cfg.InFlight = inFlight
			res, err := Run(cfg, p, BytesSource(input))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Stats.QuarantinedPartitions != 1 {
				t.Errorf("%s: %d quarantined partitions, want 1", name, res.Stats.QuarantinedPartitions)
			}
			if p.boundaries != 1 {
				t.Errorf("%s: %d Boundary calls, want 1 (the quarantined partition)", name, p.boundaries)
			}
			for i := 0; i < failIdx; i++ {
				if !sameLines(res.Tables[i], want.Tables[i]) {
					t.Fatalf("%s: table %d differs from the fault-free run", name, i)
				}
			}
			next := p.bases[failIdx+1]
			if !decline {
				if len(res.Tables) != len(want.Tables)-1 {
					t.Fatalf("%s: %d tables, want %d", name, len(res.Tables), len(want.Tables)-1)
				}
				for i := failIdx + 1; i < len(want.Tables); i++ {
					if !bytes.Equal(p.inputs[i], ref.inputs[i]) || p.bases[i] != ref.bases[i] {
						t.Fatalf("%s: partition %d parsed other bytes than the fault-free run", name, i)
					}
					if !sameLines(res.Tables[i-1], want.Tables[i]) {
						t.Fatalf("%s: partition %d emitted another table than the fault-free run", name, i)
					}
				}
				continue
			}
			if end := p.bases[failIdx] + int64(len(p.inputs[failIdx])); next != end {
				t.Fatalf("%s: partition %d starts at byte %d, want %d (carry dropped)", name, failIdx+1, next, end)
			}
			if fresh := input[next : next+int64(len(p.inputs[failIdx+1]))]; !bytes.Equal(p.inputs[failIdx+1], fresh) {
				t.Fatalf("%s: partition %d's input %q is not the fresh bytes %q", name, failIdx+1, p.inputs[failIdx+1], fresh)
			}
		}
	}
}

// sameLines reports whether two tables hold the same records.
func sameLines(a, b *columnar.Table) bool {
	return slices.Equal(collectLines([]*columnar.Table{a}), collectLines([]*columnar.Table{b}))
}

// wildBoundaryParser publishes a remainder outside its partition's
// input, then parses normally.
type wildBoundaryParser struct {
	*ringLineParser
	rem func(n int) int
}

func (p *wildBoundaryParser) ParseInFlight(arena *device.Arena, part Partition) (PartitionResult, error) {
	if part.OnBoundary != nil {
		part.OnBoundary(p.rem(len(part.Input)))
	}
	part.OnBoundary = nil
	return p.ringLineParser.ParseInFlight(arena, part)
}

// TestPublishedBoundaryOutOfRange pins the range check on a published
// boundary: a remainder longer than the input, or negative, fails the
// run with a typed ring error before the scheduler slices with it.
func TestPublishedBoundaryOutOfRange(t *testing.T) {
	input, _ := ringTestInput(100)
	for name, rem := range map[string]func(int) int{
		"longer":   func(n int) int { return n + 1 },
		"negative": func(int) int { return -1 },
	} {
		p := &wildBoundaryParser{ringLineParser: newRingLineParser(), rem: rem}
		_, err := Run(Config{PartitionSize: 64, InFlight: 2, Arenas: &testArenaPool{}}, p, BytesSource(input))
		var ie *parparawerr.InternalError
		if !errors.As(err, &ie) || ie.Stage != "ring" {
			t.Fatalf("%s: err = %v, want an InternalError of stage ring", name, err)
		}
	}
}
