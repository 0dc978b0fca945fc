package convert

import (
	"strings"
	"testing"

	"repro/internal/columnar"
	"repro/internal/device"
)

func dev() *device.Device { return device.New(device.Config{Workers: 4}) }

func TestMaterializeInt64(t *testing.T) {
	ix := buildTaggedColumn([]string{"1941", "1938", "-5", ""})
	out, err := Materialize(dev(), "t", ix, columnar.Field{Name: "id", Type: columnar.Int64}, Policy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1941, 1938, -5, 0}
	for i, w := range want[:3] {
		if out.IsNull(i) || out.Int64Value(i) != w {
			t.Errorf("row %d = %d (null=%v), want %d", i, out.Int64Value(i), out.IsNull(i), w)
		}
	}
	if !out.IsNull(3) {
		t.Error("empty field must be NULL without a default")
	}
}

func TestMaterializeDefaultValue(t *testing.T) {
	ix := buildTaggedColumn([]string{"7", ""})
	out, err := Materialize(dev(), "t", ix, columnar.Field{Name: "n", Type: columnar.Int64},
		Policy{Default: []byte("42")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.IsNull(1) || out.Int64Value(1) != 42 {
		t.Errorf("default not applied: %v null=%v", out.Int64Value(1), out.IsNull(1))
	}
}

func TestMaterializeRejectOnError(t *testing.T) {
	ix := buildTaggedColumn([]string{"1", "oops", "3"})
	rejected := make([]bool, 3)
	out, err := Materialize(dev(), "t", ix, columnar.Field{Name: "n", Type: columnar.Int64},
		Policy{RejectOnError: true}, rejected)
	if err != nil {
		t.Fatal(err)
	}
	if !rejected[1] || rejected[0] || rejected[2] {
		t.Errorf("rejected = %v", rejected)
	}
	if !out.IsNull(1) {
		t.Error("failed field must also be NULL")
	}
}

func TestMaterializeNullOnErrorWithoutReject(t *testing.T) {
	ix := buildTaggedColumn([]string{"x"})
	rejected := make([]bool, 1)
	out, err := Materialize(dev(), "t", ix, columnar.Field{Name: "n", Type: columnar.Float64},
		Policy{}, rejected)
	if err != nil {
		t.Fatal(err)
	}
	if rejected[0] {
		t.Error("record must not be rejected without RejectOnError")
	}
	if !out.IsNull(0) {
		t.Error("failed field must be NULL")
	}
}

func TestMaterializeStrings(t *testing.T) {
	values := []string{"Bookcase", "Frame\n\"Ribba\", black", "", "x"}
	ix := buildTaggedColumn(values)
	out, err := Materialize(dev(), "t", ix, columnar.Field{Name: "s", Type: columnar.String}, Policy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range values {
		if string(out.StringValue(i)) != w {
			t.Errorf("row %d = %q, want %q", i, out.StringValue(i), w)
		}
	}
	if out.NullCount() != 0 {
		t.Error("string columns keep empty fields as empty strings, not NULLs")
	}
}

func TestMaterializeStringDefault(t *testing.T) {
	ix := buildTaggedColumn([]string{"a", ""})
	out, err := Materialize(dev(), "t", ix, columnar.Field{Name: "s", Type: columnar.String},
		Policy{Default: []byte("n/a")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out.StringValue(1)) != "n/a" {
		t.Errorf("default string = %q", out.StringValue(1))
	}
}

// TestMaterializeCollaborationLevels exercises all three collaboration
// levels (§3.3): a short field (thread-exclusive), a field above the
// thread threshold (block-level), and a field above the shared-memory
// budget (device-level).
func TestMaterializeCollaborationLevels(t *testing.T) {
	d := device.New(device.Config{Workers: 4, SharedMemPerBlock: 4096})
	short := "tiny"
	blockLevel := strings.Repeat("b", ThreadFieldThreshold+100)
	deviceLevel := strings.Repeat("d", 5000) + strings.Repeat("e", 200<<10)
	values := []string{short, blockLevel, deviceLevel, "after"}
	ix := buildTaggedColumn(values)
	out, err := Materialize(d, "t", ix, columnar.Field{Name: "s", Type: columnar.String}, Policy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range values {
		if string(out.StringValue(i)) != w {
			t.Errorf("row %d: got %d bytes, want %d (first diff check failed)", i, len(out.StringValue(i)), len(w))
		}
	}
}

func TestMaterializeAllTypes(t *testing.T) {
	d := dev()
	cases := []struct {
		typ    columnar.Type
		in     string
		check  func(*columnar.Column) bool
		render string
	}{
		{columnar.Int64, "42", func(c *columnar.Column) bool { return c.Int64Value(0) == 42 }, "42"},
		{columnar.Float64, "2.5", func(c *columnar.Column) bool { return c.Float64Value(0) == 2.5 }, "2.5"},
		{columnar.Bool, "true", func(c *columnar.Column) bool { return c.BoolValue(0) }, "true"},
		{columnar.Date32, "1970-01-03", func(c *columnar.Column) bool { return c.Int64Value(0) == 2 }, "1970-01-03"},
		{columnar.TimestampMicros, "1970-01-01 00:00:01", func(c *columnar.Column) bool { return c.Int64Value(0) == 1e6 }, "1970-01-01 00:00:01"},
		{columnar.String, "hi", func(c *columnar.Column) bool { return string(c.StringValue(0)) == "hi" }, "hi"},
	}
	for _, c := range cases {
		ix := buildTaggedColumn([]string{c.in})
		out, err := Materialize(d, "t", ix, columnar.Field{Name: "v", Type: c.typ}, Policy{}, nil)
		if err != nil {
			t.Fatalf("%v: %v", c.typ, err)
		}
		if !c.check(out) {
			t.Errorf("%v: value check failed for %q", c.typ, c.in)
		}
		if got := out.ValueString(0); got != c.render {
			t.Errorf("%v: ValueString = %q, want %q", c.typ, got, c.render)
		}
	}
}

func TestMaterializeEmptyColumn(t *testing.T) {
	ix := buildTaggedColumn(nil)
	out, err := Materialize(dev(), "t", ix, columnar.Field{Name: "v", Type: columnar.Int64}, Policy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Errorf("len = %d", out.Len())
	}
}
