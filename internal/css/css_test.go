package css

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/device"
)

func dev() *device.Device { return device.New(device.Config{Workers: 4}) }

// figure6 is the sample input of Figure 6, with its control bitmap: the
// delimiters and the enclosing quotes belong to no field value.
func figure6() ([]byte, *bitmap.Bitmap) {
	in := []byte("0,\"Apples\"\n1,\n2,\"Pears\"\n")
	ctl := bitmap.New(len(in))
	for i, c := range in {
		if c == ',' || c == '"' || c == '\n' {
			ctl.Set(i)
		}
	}
	return in, ctl
}

// TestFigure6RecordTagged replays the Figure 6 example for column 1 of
// the sample input 0,"Apples"\n1,\n2,"Pears"\n. The paper's
// record-tagged CSS is "ApplesPears" with tags 000000 22222, whose
// run-length encoding gives the lengths 6,0,5. Here the fields stay in
// the input: starts 3, 13, 17 with those lengths, and the index views
// the two arrays with no launch and no arena allocation. Gathering the
// column builds the paper's CSS and its offsets 0, 6, 6.
func TestFigure6RecordTagged(t *testing.T) {
	in, ctl := figure6()
	starts, lens := []int64{3, 13, 17}, []uint32{6, 0, 5}
	d, a := dev(), device.NewArena()
	ix, err := Tagged(in, starts, lens, 3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if total, _ := a.Allocs(); d.Launches() != 0 || total != 0 {
		t.Errorf("index made %d launches and %d arena allocations, want none", d.Launches(), total)
	}
	if ix.NumFields() != 3 {
		t.Fatalf("fields = %d, want 3", ix.NumFields())
	}
	if &ix.Starts[1] != &starts[1] || &ix.Lens[1] != &lens[1] {
		t.Error("index does not view the field starts and lengths")
	}
	want := []string{"Apples", "", "Pears"}
	for k, w := range want {
		if got := string(ix.Field(k)); got != w {
			t.Errorf("field %d = %q, want %q", k, got, w)
		}
	}
	g := Gather(d, a, "t", ix, ctl)
	if string(g.Data) != "ApplesPears" || !slices.Equal(g.Starts, []int64{0, 6, 6}) || !slices.Equal(g.Lens, lens) {
		t.Errorf("gathered CSS %q starts %v lengths %v, want \"ApplesPears\" [0 6 6] %v", g.Data, g.Starts, g.Lens, lens)
	}
}

// TestFigure6Inline replays the inline-terminated variant:
// "Apples\0\0Pears\0" — the empty field of record 1 is a lone
// terminator.
func TestFigure6Inline(t *testing.T) {
	col := &Column{
		Mode:       InlineTerminated,
		Data:       []byte("Apples\x1f\x1fPears\x1f"),
		Terminator: DefaultTerminator,
	}
	ix, err := col.BuildIndexArena(dev(), nil, "t")
	if err != nil {
		t.Fatal(err)
	}
	checkFields(t, ix, []string{"Apples", "", "Pears"})
}

// TestFigure6VectorDelimited replays the vector-delimited variant:
// delimiters stay in the data, the aux bit vector marks them.
func TestFigure6VectorDelimited(t *testing.T) {
	data := []byte("Apples\n\nPears\n")
	aux := bitmap.New(len(data))
	aux.Set(6)
	aux.Set(7)
	aux.Set(13)
	col := &Column{Mode: VectorDelimited, Data: data, Aux: aux}
	ix, err := col.BuildIndexArena(dev(), nil, "t")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Apples", "", "Pears"}
	if ix.NumFields() != len(want) {
		t.Fatalf("fields = %d, want %d", ix.NumFields(), len(want))
	}
	for k := range want {
		if got := string(ix.Field(k)); got != want[k] {
			t.Errorf("field %d = %q, want %q", k, got, want[k])
		}
	}
}

func TestInlineTrailingFieldWithoutTerminator(t *testing.T) {
	col := &Column{Mode: InlineTerminated, Data: []byte("ab\x1fcd"), Terminator: DefaultTerminator}
	ix, err := col.BuildIndexArena(dev(), nil, "t")
	if err != nil {
		t.Fatal(err)
	}
	checkFields(t, ix, []string{"ab", "cd"})
}

func TestEmptyCSS(t *testing.T) {
	for _, mode := range []Mode{InlineTerminated, VectorDelimited} {
		col := &Column{Mode: mode, Terminator: DefaultTerminator, Aux: bitmap.New(0)}
		ix, err := col.BuildIndexArena(dev(), nil, "t")
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if ix.NumFields() != 0 {
			t.Errorf("%v: fields = %d, want 0", mode, ix.NumFields())
		}
	}
	ix, err := Tagged(nil, nil, nil, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g := Gather(dev(), nil, "t", ix, bitmap.New(0)); ix.NumFields() != 0 || g.NumFields() != 0 || len(g.Data) != 0 {
		t.Errorf("tagged: fields = %d, gathered %d of %d bytes, want none", ix.NumFields(), g.NumFields(), len(g.Data))
	}
}

func TestRecordTaggedSparseRecords(t *testing.T) {
	// Records 1 and 3 have no symbols at all (empty fields).
	in := []byte("aa,x\n\nbbb\n\n")
	ix, err := Tagged(in, []int64{0, 5, 6, 10}, []uint32{2, 0, 3, 0}, 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkFields(t, ix, []string{"aa", "", "bbb", ""})
}

// TestRecordTaggedBlocks reads two columns of a partition's index laid
// out in blocks of two records per column: each column's view yields
// its own fields in record order, the last block part-filled.
func TestRecordTaggedBlocks(t *testing.T) {
	in := []byte("a,1\nbb,22\nccc,333\n")
	// Block 0: column 0's records 0 and 1, then column 1's; block 1:
	// record 2 of each, with one unused entry per column.
	starts := []int64{0, 4, 2, 7, 10, -1, 14, -1}
	lens := []uint32{1, 2, 1, 2, 3, 0, 3, 0}
	for col, want := range [][]string{{"a", "bb", "ccc"}, {"1", "22", "333"}} {
		ix, err := Tagged(in, starts[2*col:], lens[2*col:], 3, 1, 4)
		if err != nil {
			t.Fatal(err)
		}
		checkFields(t, ix, want)
		if ix.Start(2) != starts[4+2*col] || ix.Len(2) != lens[4+2*col] {
			t.Errorf("column %d: record 2 at (%d,%d)", col, ix.Start(2), ix.Len(2))
		}
	}
}

func TestRecordTaggedErrors(t *testing.T) {
	for _, c := range []struct {
		starts        []int64
		lens          []uint32
		shift, stride int
		why           string
	}{
		{[]int64{0}, []uint32{1, 1}, 0, 0, "fewer starts than records"},
		{[]int64{0, 1}, []uint32{1}, 0, 0, "fewer lengths than records"},
		{[]int64{0, 1, 1}, []uint32{1, 0, 0}, 0, 3, "a second block past the arrays"},
	} {
		if _, err := Tagged([]byte("ab"), c.starts, c.lens, 2, uint(c.shift), c.stride); err == nil {
			t.Errorf("want error for %s", c.why)
		}
	}
	col := &Column{Mode: VectorDelimited, Data: []byte("ab"), Aux: bitmap.New(1)}
	if _, err := col.BuildIndexArena(dev(), nil, "t"); err == nil {
		t.Error("want error for an aux vector shorter than the data")
	}
	col = &Column{Mode: RecordTagged, Data: []byte("ab")}
	if _, err := col.BuildIndexArena(dev(), nil, "t"); err == nil {
		t.Error("want error for a mark index of a record-tagged column")
	}
}

// TestFieldLengthLimit pins the index's 4 GiB field limit: a length
// that does not fit a uint32 is refused, never wrapped, with an error
// matching ErrFieldTooLong.
func TestFieldLengthLimit(t *testing.T) {
	lens := []uint32{7}
	if !setLen(lens, 0, math.MaxUint32) || lens[0] != math.MaxUint32 {
		t.Errorf("the largest length was refused or changed: %d", lens[0])
	}
	if setLen(lens, 0, math.MaxUint32+1) || lens[0] != math.MaxUint32 {
		t.Errorf("a 4 GiB length was stored as %d", lens[0])
	}
	if err := FieldTooLong(math.MaxUint32 + 1); !errors.Is(err, ErrFieldTooLong) {
		t.Errorf("FieldTooLong = %v, does not match ErrFieldTooLong", err)
	}
}

// TestRecordTaggedLargeRandom gathers a column of many records against
// the values they were built from: empty fields, single-run fields,
// quoted fields with "" escapes (several data runs each), and escaped
// fields several pieces long, in an input whose other column's fields
// lie between them.
func TestRecordTaggedLargeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	numRecords := 3000
	var in []byte
	var ctlPos []int
	want := make([]string, numRecords)
	starts := make([]int64, numRecords)
	lens := make([]uint32, numRecords)
	control := func(b byte) {
		ctlPos = append(ctlPos, len(in))
		in = append(in, b)
	}
	for r := 0; r < numRecords; r++ {
		in = append(in, "ab"...) // column 0
		control(',')
		var v []byte
		starts[r] = int64(len(in))
		switch k := rng.Intn(10); {
		case k < 2: // empty
		case k < 5: // one data run
			for i := rng.Intn(40); i > 0; i-- {
				v = append(v, byte('a'+rng.Intn(26)))
			}
			in = append(in, v...)
		default: // quoted, with escapes: the second quote of "" is data
			control('"')
			starts[r] = int64(len(in))
			n := rng.Intn(60)
			if k == 9 && r%7 == 0 {
				n = 3*gatherPiece + rng.Intn(2*gatherPiece)
			}
			for i := 0; i < n; i++ {
				if rng.Intn(9) == 0 {
					control('"')
					v = append(v, '"')
					in = append(in, '"')
					continue
				}
				c := byte('a' + rng.Intn(26))
				v = append(v, c)
				in = append(in, c)
			}
			control('"')
		}
		want[r], lens[r] = string(v), uint32(len(v))
		control('\n')
	}
	ctl := bitmap.New(len(in))
	for _, i := range ctlPos {
		ctl.Set(i)
	}
	ix, err := Tagged(in, starts, lens, numRecords, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := Gather(dev(), device.NewArena(), "t", ix, ctl)
	if g.NumFields() != numRecords {
		t.Fatalf("fields = %d, want %d", g.NumFields(), numRecords)
	}
	var at int64
	for r := range want {
		if got := string(g.Field(r)); got != want[r] || g.Starts[r] != at {
			t.Fatalf("record %d = %q at %d, want %q at %d", r, got, g.Starts[r], want[r], at)
		}
		at += int64(len(want[r]))
	}
	if int64(len(g.Data)) != at {
		t.Fatalf("gathered %d bytes, want %d", len(g.Data), at)
	}
}

// TestInlineLargeRandom cross-checks the mark-based index against a
// sequential split for inputs larger than one tile.
func TestInlineLargeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var data []byte
	var want []string
	var cur []byte
	for i := 0; i < 20000; i++ {
		if rng.Intn(9) == 0 {
			data = append(data, DefaultTerminator)
			want = append(want, string(cur))
			cur = cur[:0]
		} else {
			c := byte('a' + rng.Intn(26))
			data = append(data, c)
			cur = append(cur, c)
		}
	}
	if len(cur) > 0 {
		want = append(want, string(cur))
	}
	col := &Column{Mode: InlineTerminated, Data: data, Terminator: DefaultTerminator}
	ix, err := col.BuildIndexArena(dev(), nil, "t")
	if err != nil {
		t.Fatal(err)
	}
	checkFields(t, ix, want)
}

// TestVectorLargeRandom cross-checks the vector index against a
// sequential split, on a column whose aux bits start mid-word in a
// bitmap shared with other columns.
func TestVectorLargeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const base = 37
	var data []byte
	var want []string
	aux := bitmap.New(base + 20000 + 50)
	cur := 0
	for i := 0; i < 20000; i++ {
		if rng.Intn(9) == 0 {
			aux.Set(base + len(data))
			want = append(want, string(data[cur:]))
			data = append(data, ',')
			cur = len(data)
			continue
		}
		data = append(data, byte('a'+rng.Intn(26)))
	}
	if cur < len(data) {
		want = append(want, string(data[cur:]))
	}
	aux.Set(base + len(data)) // a neighbouring column's mark
	col := &Column{Mode: VectorDelimited, Data: data, Aux: aux, AuxBase: base}
	ix, err := col.BuildIndexArena(dev(), nil, "t")
	if err != nil {
		t.Fatal(err)
	}
	checkFields(t, ix, want)
}

func checkFields(t *testing.T, ix *Index, want []string) {
	t.Helper()
	if ix.NumFields() != len(want) {
		t.Fatalf("fields = %d, want %d", ix.NumFields(), len(want))
	}
	for k := range want {
		if got := string(ix.Field(k)); got != want[k] {
			t.Fatalf("field %d = %q, want %q", k, got, want[k])
		}
	}
}

func TestModeString(t *testing.T) {
	if RecordTagged.String() != "tagged" || InlineTerminated.String() != "inline" || VectorDelimited.String() != "delimited" {
		t.Error("Mode.String broken")
	}
}
