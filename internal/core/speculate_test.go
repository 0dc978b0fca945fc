package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/columnar"
	"repro/internal/device"
	"repro/internal/dfa"
	"repro/internal/workload"
)

// TestParseSpeculationMisses pins the parse launch's guessed emission to
// the paper's two passes on the two inputs that bound its misses. The
// first is one quoted field with no inner quote covering 96% of 4 MiB:
// no chunk inside it can guess that it starts enclosed, so nearly every
// chunk is walked again. The second is taxi, which has no quotes, so a
// block's first chunk is the only one that can miss. Both must parse
// byte-identically to a machine with its fused tables off, which takes
// no guess: the same bitmaps, per-chunk counts and metadata after the
// emit launch, and the same table. Chunk sizes 31 and 1000 leave bitmap
// words shared between neighbouring chunks.
func TestParseSpeculationMisses(t *testing.T) {
	const size = 4 << 20
	d := device.New(device.Config{Workers: 4})
	inputs := []struct {
		name string
		spec workload.Spec
		size int
		// check holds a run's re-walked chunks to the input's bound.
		check func(reemitted, chunks, blocks int) error
	}{
		{"giant-quoted-field", workload.Skewed(workload.Yelp(), size*96/100), size,
			func(reemitted, chunks, _ int) error {
				if 10*reemitted <= 9*chunks {
					return fmt.Errorf("re-walked %d of %d chunks, want more than 90%%", reemitted, chunks)
				}
				return nil
			}},
		{"taxi", workload.Taxi(), size / 4,
			func(reemitted, _, blocks int) error {
				if reemitted > blocks {
					return fmt.Errorf("re-walked %d chunks in %d launch blocks, want at most one per block", reemitted, blocks)
				}
				return nil
			}},
	}
	for _, in := range inputs {
		input := in.spec.Generate(in.size, 9)
		for _, chunk := range []int{31, 1000, 1024} {
			name := fmt.Sprintf("%s/chunk=%d", in.name, chunk)
			opts := Options{Device: d, ChunkSize: chunk, Schema: in.spec.Schema}
			guessed := runToPartition(t, device.NewArena(), input, opts)
			opts.Machine = dfa.RFC4180().SetFastPath(false, false)
			twoPass := runToPartition(t, device.NewArena(), input, opts)

			if twoPass.stats.ReemittedChunks != twoPass.chunks {
				t.Fatalf("%s: the no-guess path re-walked %d of %d chunks", name, twoPass.stats.ReemittedChunks, twoPass.chunks)
			}
			blocks := (guessed.chunks + d.Config().BlockSize - 1) / d.Config().BlockSize
			t.Logf("%s: re-walked %d of %d chunks in %d blocks", name, guessed.stats.ReemittedChunks, guessed.chunks, blocks)
			if err := in.check(guessed.stats.ReemittedChunks, guessed.chunks, blocks); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			for _, bm := range []struct {
				name      string
				got, want *bitmap.Bitmap
			}{
				{"record", guessed.bitmaps.Record, twoPass.bitmaps.Record},
				{"field", guessed.bitmaps.Field, twoPass.bitmaps.Field},
				{"control", guessed.bitmaps.Control, twoPass.bitmaps.Control},
			} {
				for w := 0; w < bitmap.WordsFor(bm.got.Len()); w++ {
					if bm.got.Word(w) != bm.want.Word(w) {
						t.Fatalf("%s: %s bitmap word %d = %#x, two passes give %#x", name, bm.name, w, bm.got.Word(w), bm.want.Word(w))
					}
				}
			}
			if !slices.Equal(guessed.recBase, twoPass.recBase) || !slices.Equal(guessed.colBase, twoPass.colBase) ||
				!slices.Equal(guessed.meta, twoPass.meta) {
				t.Fatalf("%s: per-chunk counts or metadata differ from the two passes'", name)
			}

			opts.Machine = nil
			got, err := Parse(input, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			opts.Machine = dfa.RFC4180().SetFastPath(false, false)
			want, err := Parse(input, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := sameTable(got.Table, want.Table); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// sameTable reports the first cell in which two tables differ.
func sameTable(got, want *columnar.Table) error {
	if got.NumRows() != want.NumRows() || got.NumColumns() != want.NumColumns() {
		return fmt.Errorf("table is %d×%d, want %d×%d", got.NumRows(), got.NumColumns(), want.NumRows(), want.NumColumns())
	}
	for c := 0; c < got.NumColumns(); c++ {
		g, w := got.Column(c), want.Column(c)
		for r := 0; r < got.NumRows(); r++ {
			if g.ValueString(r) != w.ValueString(r) {
				return fmt.Errorf("cell (%d, %d) = %q, want %q", r, c, g.ValueString(r), w.ValueString(r))
			}
		}
	}
	return nil
}
