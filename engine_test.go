package parparaw

// Tests for the Engine serving layer: compile-once/execute-many parity
// with the one-shot Parse, the race-tested arena-checkout path under
// concurrent callers, configuration rejection at NewEngine time, and
// the ParseReader size-threshold routing.

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/workload"
)

func engineTestInput(records int) []byte {
	var sb bytes.Buffer
	sb.WriteString("id,text,score\n")
	for i := 0; i < records; i++ {
		fmt.Fprintf(&sb, "%d,\"row %d, with\ndelims\",%d.5\n", i, i, i%9)
	}
	return sb.Bytes()
}

func TestEngineParseMatchesParse(t *testing.T) {
	input := engineTestInput(400)
	opts := Options{HasHeader: true}
	want, err := Parse(input, opts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Several sequential calls: the second and later run entirely on
	// recycled arena buffers, and must still be identical.
	for i := 0; i < 3; i++ {
		got, err := e.Parse(input)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if strings.Join(got.Header, ",") != strings.Join(want.Header, ",") {
			t.Fatalf("call %d: header = %v, want %v", i, got.Header, want.Header)
		}
		g, w := tableRows(got.Table), tableRows(want.Table)
		if len(g) != len(w) {
			t.Fatalf("call %d: rows = %d, want %d", i, len(g), len(w))
		}
		for r := range w {
			if g[r] != w[r] {
				t.Fatalf("call %d row %d: %q, want %q", i, r, g[r], w[r])
			}
		}
	}
}

// TestEngineConcurrentPhasesPerRun pins Stats.Phases to the call that
// reports it. The four calls share the process-wide default device (no
// Workers or VirtualWorkers) and overlap; with one convert worker each
// call launches its kernels one after another, so its phases must sum
// to at most its own wall time. Timing every call on the device's one
// timer would add the other calls' launches to each call's phases.
func TestEngineConcurrentPhasesPerRun(t *testing.T) {
	input := workload.Yelp().Generate(2<<20, 7)
	e := coreEngine(t, Options{}, convertWorkers(1))
	const calls = 4
	stats := make([]Stats, calls)
	errs := make([]error, calls)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, err := e.Parse(input)
			if err != nil {
				errs[i] = err
				return
			}
			stats[i] = res.Stats
		}()
	}
	close(start)
	wg.Wait()
	for i, s := range stats {
		if errs[i] != nil {
			t.Fatalf("call %d: %v", i, errs[i])
		}
		var sum time.Duration
		for _, d := range s.Phases {
			sum += d
		}
		if sum > s.Duration {
			t.Errorf("call %d: phases sum to %v, more than its own duration %v: %v", i, sum, s.Duration, s.Phases)
		}
	}
}

// TestEngineConcurrentParse is the serving-layer race test: N goroutines
// hammer one Engine and every result must match an independent Parse.
// Run under -race (as CI does) this exercises the arena-checkout path.
func TestEngineConcurrentParse(t *testing.T) {
	inputs := [][]byte{
		engineTestInput(300),
		engineTestInput(120),
		engineTestInput(37),
	}
	opts := Options{HasHeader: true}
	want := make([][]string, len(inputs))
	for i, in := range inputs {
		res, err := Parse(in, opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = tableRows(res.Table)
	}

	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const iters = 12
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				k := (g + it) % len(inputs)
				res, err := e.Parse(inputs[k])
				if err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d: %w", g, it, err)
					return
				}
				got := tableRows(res.Table)
				if len(got) != len(want[k]) {
					errs <- fmt.Errorf("goroutine %d iter %d: rows = %d, want %d", g, it, len(got), len(want[k]))
					return
				}
				for r := range got {
					if got[r] != want[k][r] {
						errs <- fmt.Errorf("goroutine %d iter %d row %d: %q, want %q", g, it, r, got[r], want[k][r])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestNewEngineRejectsBadConfig(t *testing.T) {
	cases := []Options{
		{SelectColumns: []int{0, 0}},
		{SelectColumns: []int{-1}},
		{SkipRecords: []int64{5, 2}},
	}
	for i, opts := range cases {
		if _, err := NewEngine(opts); err == nil {
			t.Errorf("case %d: bad configuration accepted", i)
		}
	}
	// The same errors must also surface from the one-shot entry points.
	if _, err := Parse([]byte("a,b\n"), Options{SelectColumns: []int{0, 0}}); err == nil {
		t.Error("Parse accepted a duplicate column selection")
	}
	if _, err := Stream([]byte("a,b\n"), StreamOptions{Options: Options{SkipRecords: []int64{5, 2}}}); err == nil {
		t.Error("Stream accepted an unsorted skip list")
	}
}

func TestEngineStreamMatchesParse(t *testing.T) {
	input := engineTestInput(500)
	opts := Options{HasHeader: true}
	want, err := Parse(input, opts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Two runs through the same engine: the second reuses the first's
	// pooled arena.
	for i := 0; i < 2; i++ {
		res, err := e.Stream(input, StreamConfig{PartitionSize: 1024})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if res.Stats.Partitions < 3 {
			t.Fatalf("run %d: partitions = %d, want several", i, res.Stats.Partitions)
		}
		combined, err := res.Combined()
		if err != nil {
			t.Fatal(err)
		}
		g, w := tableRows(combined), tableRows(want.Table)
		if len(g) != len(w) {
			t.Fatalf("run %d: rows = %d, want %d", i, len(g), len(w))
		}
		for r := range w {
			if g[r] != w[r] {
				t.Fatalf("run %d row %d: %q, want %q", i, r, g[r], w[r])
			}
		}
	}
}

// TestParseReaderThresholdRouting checks both ParseReader routes: under
// the threshold the input is parsed in one shot, above it the input
// streams — and both produce the same table as Parse.
func TestParseReaderThresholdRouting(t *testing.T) {
	input := engineTestInput(600)
	want, err := Parse(input, Options{HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}

	check := func(t *testing.T, res *Result) {
		t.Helper()
		g, w := tableRows(res.Table), tableRows(want.Table)
		if len(g) != len(w) {
			t.Fatalf("rows = %d, want %d", len(g), len(w))
		}
		for r := range w {
			if g[r] != w[r] {
				t.Fatalf("row %d: %q, want %q", r, g[r], w[r])
			}
		}
		if strings.Join(res.Header, ",") != "id,text,score" {
			t.Fatalf("header = %v", res.Header)
		}
	}

	t.Run("one-shot", func(t *testing.T) {
		res, err := ParseReader(bytes.NewReader(input), Options{HasHeader: true})
		if err != nil {
			t.Fatal(err)
		}
		check(t, res)
		if res.Stats.Chunks == 0 {
			t.Error("one-shot route should report chunk counts")
		}
	})

	t.Run("streamed", func(t *testing.T) {
		defer func(old int) { ReaderStreamThreshold = old }(ReaderStreamThreshold)
		ReaderStreamThreshold = 1 << 10 // force the streaming route
		res, err := ParseReader(bytes.NewReader(input), Options{HasHeader: true})
		if err != nil {
			t.Fatal(err)
		}
		check(t, res)
		if res.Stats.InputBytes != int64(len(input)) {
			t.Errorf("InputBytes = %d, want %d", res.Stats.InputBytes, len(input))
		}
		if res.Stats.Records != int64(want.Table.NumRows()) {
			t.Errorf("Records = %d, want %d", res.Stats.Records, want.Table.NumRows())
		}
	})
}
