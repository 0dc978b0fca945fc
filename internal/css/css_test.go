package css

import (
	"math/rand"
	"testing"

	"repro/internal/device"
)

func dev() *device.Device { return device.New(device.Config{Workers: 4}) }

// TestFigure6RecordTagged replays the Figure 6 example for column 1 of
// the sample input 0,"Apples"\n1,\n2,"Pears"\n — record-tagged CSS
// "ApplesPears" with tags 000000 22222, whose run-length encoding gives
// the lengths 6,0,5 and the offsets 0,6,6,11. The index is two views of
// those offsets: building it makes no launch and no arena allocation.
func TestFigure6RecordTagged(t *testing.T) {
	col := &Column{
		Mode:    RecordTagged,
		Data:    []byte("ApplesPears"),
		Offsets: []int64{0, 6, 6, 11},
	}
	d, a := dev(), device.NewArena()
	ix, err := col.BuildIndexArena(d, a, "t", 3)
	if err != nil {
		t.Fatal(err)
	}
	if total, _ := a.Allocs(); d.Launches() != 0 || total != 0 {
		t.Errorf("index made %d launches and %d arena allocations, want none", d.Launches(), total)
	}
	if ix.NumFields() != 3 {
		t.Fatalf("fields = %d, want 3", ix.NumFields())
	}
	wantStart := []int64{0, 6, 6}
	wantEnd := []int64{6, 6, 11}
	for k := range wantStart {
		if ix.Starts[k] != wantStart[k] || ix.Ends[k] != wantEnd[k] {
			t.Errorf("field %d = (%d,%d), want (%d,%d)", k, ix.Starts[k], ix.Ends[k], wantStart[k], wantEnd[k])
		}
	}
	if &ix.Starts[1] != &col.Offsets[1] || &ix.Ends[0] != &col.Offsets[1] {
		t.Error("index does not view the column's offsets")
	}
	if s, e := ix.Field(0); string(col.Data[s:e]) != "Apples" {
		t.Error("field 0 content wrong")
	}
	if s, e := ix.Field(2); string(col.Data[s:e]) != "Pears" {
		t.Error("field 2 content wrong")
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
	ix, err := col.BuildIndexArena(dev(), nil, "t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumFields() != 3 {
		t.Fatalf("fields = %d, want 3", ix.NumFields())
	}
	values := make([]string, 3)
	for k := 0; k < 3; k++ {
		s, e := ix.Field(k)
		values[k] = string(col.Data[s:e])
	}
	want := []string{"Apples", "", "Pears"}
	for k := range want {
		if values[k] != want[k] {
			t.Errorf("field %d = %q, want %q", k, values[k], want[k])
		}
	}
}

// TestFigure6VectorDelimited replays the vector-delimited variant:
// delimiters stay in the data, the aux vector marks them.
func TestFigure6VectorDelimited(t *testing.T) {
	data := []byte("Apples\n\nPears\n")
	aux := make([]bool, len(data))
	aux[6], aux[7], aux[13] = true, true, true
	col := &Column{Mode: VectorDelimited, Data: data, Aux: aux}
	ix, err := col.BuildIndexArena(dev(), nil, "t", 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Apples", "", "Pears"}
	if ix.NumFields() != len(want) {
		t.Fatalf("fields = %d, want %d", ix.NumFields(), len(want))
	}
	for k := range want {
		s, e := ix.Field(k)
		if string(col.Data[s:e]) != want[k] {
			t.Errorf("field %d = %q, want %q", k, col.Data[s:e], want[k])
		}
	}
}

func TestInlineTrailingFieldWithoutTerminator(t *testing.T) {
	col := &Column{Mode: InlineTerminated, Data: []byte("ab\x1fcd"), Terminator: DefaultTerminator}
	ix, err := col.BuildIndexArena(dev(), nil, "t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumFields() != 2 {
		t.Fatalf("fields = %d, want 2", ix.NumFields())
	}
	s, e := ix.Field(1)
	if string(col.Data[s:e]) != "cd" {
		t.Errorf("trailing field = %q", col.Data[s:e])
	}
}

func TestEmptyCSS(t *testing.T) {
	for _, mode := range []Mode{RecordTagged, InlineTerminated, VectorDelimited} {
		col := &Column{Mode: mode, Terminator: DefaultTerminator, Aux: []bool{}, Offsets: []int64{0}}
		ix, err := col.BuildIndexArena(dev(), nil, "t", 0)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if ix.NumFields() != 0 {
			t.Errorf("%v: fields = %d, want 0", mode, ix.NumFields())
		}
	}
}

func TestRecordTaggedSparseRecords(t *testing.T) {
	// Records 1 and 3 have no symbols at all (empty fields).
	col := &Column{
		Mode:    RecordTagged,
		Data:    []byte("aabbb"),
		Offsets: []int64{0, 2, 2, 5, 5},
	}
	ix, err := col.BuildIndexArena(dev(), nil, "t", 4)
	if err != nil {
		t.Fatal(err)
	}
	wantStart := []int64{0, 2, 2, 5}
	wantEnd := []int64{2, 2, 5, 5}
	for k, w := range wantEnd {
		if ix.Ends[k] != w || ix.Starts[k] != wantStart[k] {
			t.Errorf("record %d = (%d,%d), want (%d,%d)", k, ix.Starts[k], ix.Ends[k], wantStart[k], w)
		}
	}
}

func TestRecordTaggedErrors(t *testing.T) {
	for _, c := range []struct {
		offs []int64
		why  string
	}{
		{[]int64{0, 2}, "offset-count/record-count mismatch"},
		{[]int64{1, 1, 2}, "offsets not starting at 0"},
		{[]int64{0, 1, 1}, "offsets not ending at the data length"},
	} {
		col := &Column{Mode: RecordTagged, Data: []byte("ab"), Offsets: c.offs}
		if _, err := col.BuildIndexArena(dev(), nil, "t", 2); err == nil {
			t.Errorf("want error for %s", c.why)
		}
	}
	col2 := &Column{Mode: VectorDelimited, Data: []byte("ab"), Aux: []bool{true}}
	if _, err := col2.BuildIndexArena(dev(), nil, "t", 0); err == nil {
		t.Error("want error for aux/data length mismatch")
	}
}

// TestRecordTaggedLargeRandom checks the index of many records, empty
// ones among them, against the values they were built from.
func TestRecordTaggedLargeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	numRecords := 5000
	var data []byte
	want := make([]string, numRecords)
	offs := []int64{0}
	for r := 0; r < numRecords; r++ {
		l := rng.Intn(40)
		if rng.Intn(5) == 0 {
			l = 0
		}
		for i := 0; i < l; i++ {
			data = append(data, byte('a'+rng.Intn(26)))
		}
		want[r] = string(data[len(data)-l:])
		offs = append(offs, int64(len(data)))
	}
	col := &Column{Mode: RecordTagged, Data: data, Offsets: offs}
	ix, err := col.BuildIndexArena(dev(), nil, "t", numRecords)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumFields() != numRecords {
		t.Fatalf("fields = %d, want %d", ix.NumFields(), numRecords)
	}
	for r := range want {
		if s, e := ix.Field(r); string(data[s:e]) != want[r] {
			t.Fatalf("record %d = %q, want %q", r, data[s:e], want[r])
		}
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
	ix, err := col.BuildIndexArena(dev(), nil, "t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumFields() != len(want) {
		t.Fatalf("fields = %d, want %d", ix.NumFields(), len(want))
	}
	for k := range want {
		s, e := ix.Field(k)
		if string(col.Data[s:e]) != want[k] {
			t.Fatalf("field %d = %q, want %q", k, col.Data[s:e], want[k])
		}
	}
}

func TestModeString(t *testing.T) {
	if RecordTagged.String() != "tagged" || InlineTerminated.String() != "inline" || VectorDelimited.String() != "delimited" {
		t.Error("Mode.String broken")
	}
}
