package parparaw

// Parity suite for the fused byte-indexed DFA tables and the
// interesting-byte skip-ahead: every fast-path configuration must
// produce a byte-identical table to the split reference path in every
// tagging mode, for ASCII and UTF-16 inputs, across chunk sizes that
// put skip windows on and off chunk boundaries. The fast paths change
// only how many instructions each input byte costs — never the output.

import (
	"fmt"
	"testing"

	"repro/internal/workload"
)

// fastPathVariants are the fast-path combinations under test; "split"
// is the reference the others must match.
var fastPathVariants = []struct {
	name        string
	fused, skip bool
}{
	{"fused+skipahead", true, true},
	{"fused", true, false},
	{"split", false, false},
}

// withFastPath returns opts parsing with a copy of its format whose
// machine runs the given fast paths: the fused tables and the
// skip-ahead are properties of the machine, so a reference-path parse
// is a parse under another Format.
func withFastPath(opts Options, fused, skip bool) Options {
	f := opts.Format
	if f == nil {
		f = DefaultFormat()
	}
	opts.Format = &Format{m: f.m.SetFastPath(fused, skip)}
	return opts
}

func fastPathInputs() map[string][]byte {
	return map[string][]byte{
		"yelp":      workload.Yelp().Generate(96<<10, 42),
		"taxi":      workload.Taxi().Generate(96<<10, 42),
		"edge":      []byte("a,b\n\"q,\"\"q\nq\",2\n,,\n# not a comment in rfc4180\ntrailing,row"),
		"empty":     nil,
		"one-quote": []byte("\""),
	}
}

func parityCompare(t *testing.T, label string, opts Options, input []byte) {
	t.Helper()
	ref := withFastPath(opts, false, false)
	want, err := Parse(input, ref)
	if err != nil {
		t.Fatalf("%s: reference parse failed: %v", label, err)
	}
	// Pin the reference's schema so type inference cannot mask a
	// divergence in the raw column bytes.
	opts.Schema = want.Table.Schema()
	ref.Schema = want.Table.Schema()
	want, err = Parse(input, ref)
	if err != nil {
		t.Fatalf("%s: reference re-parse failed: %v", label, err)
	}
	for _, v := range fastPathVariants {
		got, err := Parse(input, withFastPath(opts, v.fused, v.skip))
		if err != nil {
			t.Fatalf("%s/%s: parse failed: %v", label, v.name, err)
		}
		if got.Stats.InvalidInput != want.Stats.InvalidInput {
			t.Fatalf("%s/%s: InvalidInput %v vs %v", label, v.name, got.Stats.InvalidInput, want.Stats.InvalidInput)
		}
		if got.Table.NumRows() != want.Table.NumRows() {
			t.Fatalf("%s/%s: rows %d vs %d", label, v.name, got.Table.NumRows(), want.Table.NumRows())
		}
		a, b := tableRows(got.Table), tableRows(want.Table)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s/%s: row %d: %q vs %q", label, v.name, i, a[i], b[i])
			}
		}
	}
}

// TestFastPathParityAcrossModes drives all three tagging modes over the
// workload and edge inputs at several chunk sizes.
func TestFastPathParityAcrossModes(t *testing.T) {
	inputs := fastPathInputs()
	for _, mode := range []TaggingMode{RecordTagged, InlineTerminated, VectorDelimited} {
		for name, input := range inputs {
			if mode != RecordTagged && name != "taxi" {
				// Inline/vector modes require constant column counts;
				// only the taxi workload guarantees that.
				continue
			}
			for _, chunk := range []int{7, 31, 64} {
				label := fmt.Sprintf("%v/%s/chunk=%d", mode, name, chunk)
				parityCompare(t, label, Options{Mode: mode, ChunkSize: chunk}, input)
			}
		}
	}
}

// TestFastPathParityUTF16 covers the transcode front-end: skip-ahead
// runs over the transcoded UTF-8 body, and partition boundaries in the
// raw input must not change that.
func TestFastPathParityUTF16(t *testing.T) {
	text := "id,text\n1,\"héllo, wörld\n😀 multi\nline\"\n2,plain\n3,\"quoted \"\"escape\"\"\"\n"
	for _, bom := range []bool{false, true} {
		input := encodeUTF16LE(text, bom)
		opts := Options{Encoding: UTF16LE, HasHeader: true}
		if bom {
			opts = Options{DetectEncoding: true, HasHeader: true}
		}
		parityCompare(t, fmt.Sprintf("utf16/bom=%v", bom), opts, input)
	}
}

// TestFastPathParityStreaming runs the fast-path variants through the
// streaming pipeline: carry-over re-parses and tiny partitions must not
// disturb skip-ahead state.
func TestFastPathParityStreaming(t *testing.T) {
	input := workload.Yelp().Generate(64<<10, 7)
	ref, err := Parse(input, withFastPath(Options{}, false, false))
	if err != nil {
		t.Fatal(err)
	}
	want := tableRows(ref.Table)
	for _, v := range fastPathVariants {
		res, err := Stream(input, StreamOptions{
			Options:       withFastPath(Options{Schema: ref.Table.Schema()}, v.fused, v.skip),
			PartitionSize: 8 << 10,
			Bus:           NewBus(BusConfig{TimeScale: 1e9, Latency: -1}),
		})
		if err != nil {
			t.Fatalf("%s: stream failed: %v", v.name, err)
		}
		combined, err := res.Combined()
		if err != nil {
			t.Fatalf("%s: combine failed: %v", v.name, err)
		}
		got := tableRows(combined)
		if len(got) != len(want) {
			t.Fatalf("%s: rows %d vs %d", v.name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: row %d: %q vs %q", v.name, i, got[i], want[i])
			}
		}
	}
}

// TestPartitionPhaseNoPermutationBuffer pins the counting scatter's
// memory property: the partition stage's arena high-water mark stays
// well below what the radix permutation buffers (2 × 4 bytes per input
// byte on top of the payload traffic) required. A regression that
// reintroduces an O(n) permutation shows up as several extra input
// multiples here.
func TestPartitionPhaseNoPermutationBuffer(t *testing.T) {
	input := workload.Taxi().Generate(512<<10, 42)
	res, err := Parse(input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := int64(len(input))
	// Measured on this workload: ~61× input with the radix permutation
	// buffers (two 4-byte-per-symbol permutation arrays plus the extra
	// gather passes), ~43× with the counting scatter over per-symbol tag
	// buffers, ~22× with the fused tag-scatter. 50× splits the first two
	// regimes with margin for size-class rounding; internal/core's
	// TestFusedScatterNoPerSymbolBuffers holds the tighter bound.
	if peak := res.Stats.DeviceBytes; peak > 50*n {
		t.Fatalf("device peak %d = %.1f× input; permutation-buffer regression?", peak, float64(peak)/float64(n))
	}
}
