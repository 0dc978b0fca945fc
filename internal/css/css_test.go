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
// the lengths 6,0,5 and the per-record offsets 0,6,6.
func TestFigure6RecordTagged(t *testing.T) {
	col := &Column{
		Mode:    RecordTagged,
		Data:    []byte("ApplesPears"),
		Lengths: []int64{6, 0, 5},
	}
	ix, err := col.BuildIndexArena(dev(), nil, "t", 3)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumFields() != 3 {
		t.Fatalf("fields = %d, want 3", ix.NumFields())
	}
	wantStart := []int64{0, 6, 6}
	wantLen := []int64{6, 0, 5}
	for k := range wantStart {
		if ix.Starts[k] != wantStart[k] || ix.Lengths[k] != wantLen[k] {
			t.Errorf("field %d = (%d,%d), want (%d,%d)", k, ix.Starts[k], ix.Lengths[k], wantStart[k], wantLen[k])
		}
	}
	if string(col.Data[ix.Starts[0]:ix.Starts[0]+ix.Lengths[0]]) != "Apples" {
		t.Error("field 0 content wrong")
	}
	if string(col.Data[ix.Starts[2]:ix.Starts[2]+ix.Lengths[2]]) != "Pears" {
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
		col := &Column{Mode: mode, Terminator: DefaultTerminator, Aux: []bool{}}
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
		Lengths: []int64{2, 0, 3, 0},
	}
	ix, err := col.BuildIndexArena(dev(), nil, "t", 4)
	if err != nil {
		t.Fatal(err)
	}
	wantStart := []int64{0, 2, 2, 5}
	wantLen := []int64{2, 0, 3, 0}
	for k, w := range wantLen {
		if ix.Lengths[k] != w || ix.Starts[k] != wantStart[k] {
			t.Errorf("record %d = (%d,%d), want (%d,%d)", k, ix.Starts[k], ix.Lengths[k], wantStart[k], w)
		}
	}
}

func TestRecordTaggedErrors(t *testing.T) {
	col := &Column{Mode: RecordTagged, Data: []byte("ab"), Lengths: []int64{2}}
	if _, err := col.BuildIndexArena(dev(), nil, "t", 2); err == nil {
		t.Error("want error for length-count/record-count mismatch")
	}
	col = &Column{Mode: RecordTagged, Data: []byte("ab"), Lengths: []int64{1, 0}}
	if _, err := col.BuildIndexArena(dev(), nil, "t", 2); err == nil {
		t.Error("want error for lengths not summing to the data length")
	}
	col2 := &Column{Mode: VectorDelimited, Data: []byte("ab"), Aux: []bool{true}}
	if _, err := col2.BuildIndexArena(dev(), nil, "t", 0); err == nil {
		t.Error("want error for aux/data length mismatch")
	}
}

// TestRecordTaggedLargeRandom cross-checks the parallel scan index
// against a sequential construction for more records than one scan
// tile holds.
func TestRecordTaggedLargeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	numRecords := 5000
	var data []byte
	wantLen := make([]int64, numRecords)
	for r := 0; r < numRecords; r++ {
		l := rng.Intn(40)
		if rng.Intn(5) == 0 {
			l = 0
		}
		wantLen[r] = int64(l)
		for i := 0; i < l; i++ {
			data = append(data, byte('a'+rng.Intn(26)))
		}
	}
	col := &Column{Mode: RecordTagged, Data: data, Lengths: wantLen}
	ix, err := col.BuildIndexArena(dev(), nil, "t", numRecords)
	if err != nil {
		t.Fatal(err)
	}
	var acc int64
	for r := 0; r < numRecords; r++ {
		if ix.Lengths[r] != wantLen[r] {
			t.Fatalf("record %d length = %d, want %d", r, ix.Lengths[r], wantLen[r])
		}
		if ix.Starts[r] != acc {
			t.Fatalf("record %d start = %d, want %d", r, ix.Starts[r], acc)
		}
		acc += wantLen[r]
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
