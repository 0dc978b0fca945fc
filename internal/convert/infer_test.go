package convert

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/columnar"
	"repro/internal/css"
	"repro/internal/device"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		in   string
		want Class
	}{
		{"", ClassEmpty},
		{"42", ClassInt64},
		{"-7", ClassInt64},
		{"3.14", ClassFloat64},
		{"1e9", ClassFloat64},
		{"true", ClassBool},
		{"FALSE", ClassBool},
		{"2018-06-15", ClassDate},
		{"2018-06-15 13:45:09", ClassTimestamp},
		{"hello", ClassString},
		{"12ab", ClassString},
	}
	for _, c := range cases {
		if got := Classify([]byte(c.in)); got != c.want {
			t.Errorf("Classify(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestUnifyTable(t *testing.T) {
	cases := []struct{ a, b, want Class }{
		{ClassEmpty, ClassInt64, ClassInt64},
		{ClassInt64, ClassEmpty, ClassInt64},
		{ClassInt64, ClassFloat64, ClassFloat64},
		{ClassInt64, ClassInt64, ClassInt64},
		{ClassDate, ClassTimestamp, ClassTimestamp},
		{ClassInt64, ClassDate, ClassString},
		{ClassBool, ClassInt64, ClassString},
		{ClassString, ClassInt64, ClassString},
		{ClassEmpty, ClassEmpty, ClassEmpty},
	}
	for _, c := range cases {
		if got := Unify(c.a, c.b); got != c.want {
			t.Errorf("Unify(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestUnifyIsSemilatticeQuick: commutative, associative, idempotent — the
// requirements for a parallel reduction (§4.3).
func TestUnifyIsSemilatticeQuick(t *testing.T) {
	classes := []Class{ClassEmpty, ClassBool, ClassInt64, ClassFloat64, ClassDate, ClassTimestamp, ClassString}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := classes[rng.Intn(len(classes))]
		b := classes[rng.Intn(len(classes))]
		c := classes[rng.Intn(len(classes))]
		if Unify(a, b) != Unify(b, a) {
			return false
		}
		if Unify(Unify(a, b), c) != Unify(a, Unify(b, c)) {
			return false
		}
		return Unify(a, a) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestClassType(t *testing.T) {
	cases := map[Class]columnar.Type{
		ClassEmpty:     columnar.String,
		ClassBool:      columnar.Bool,
		ClassInt64:     columnar.Int64,
		ClassFloat64:   columnar.Float64,
		ClassDate:      columnar.Date32,
		ClassTimestamp: columnar.TimestampMicros,
		ClassString:    columnar.String,
	}
	for c, want := range cases {
		if got := c.Type(); got != want {
			t.Errorf("%v.Type() = %v, want %v", c, got, want)
		}
	}
}

// buildTaggedColumn indexes values as a record-tagged column: one field
// per record, laid end to end.
func buildTaggedColumn(values []string) *css.Index {
	ix := &css.Index{}
	for _, v := range values {
		ix.Starts = append(ix.Starts, int64(len(ix.Data)))
		ix.Lens = append(ix.Lens, uint32(len(v)))
		ix.Data = append(ix.Data, v...)
	}
	return ix
}

func TestInferColumn(t *testing.T) {
	d := device.New(device.Config{Workers: 4})
	cases := []struct {
		values []string
		want   Class
	}{
		{[]string{"1", "2", "3"}, ClassInt64},
		{[]string{"1", "2.5", "3"}, ClassFloat64},
		{[]string{"1", "", "3"}, ClassInt64},
		{[]string{"", "", ""}, ClassEmpty},
		{[]string{"2018-01-01", "2019-02-02"}, ClassDate},
		{[]string{"2018-01-01", "2018-01-01 10:00:00"}, ClassTimestamp},
		{[]string{"true", "false"}, ClassBool},
		{[]string{"1", "x"}, ClassString},
		{nil, ClassEmpty},
	}
	for _, c := range cases {
		ix := buildTaggedColumn(c.values)
		if got := InferColumn(d, "t", ix); got != c.want {
			t.Errorf("InferColumn(%v) = %v, want %v", c.values, got, c.want)
		}
	}
}

func TestInferColumnLarge(t *testing.T) {
	d := device.New(device.Config{Workers: 8})
	values := make([]string, 10000)
	for i := range values {
		values[i] = "12345"
	}
	values[7777] = "1.5" // a single float must widen the whole column
	ix := buildTaggedColumn(values)
	if got := InferColumn(d, "t", ix); got != ClassFloat64 {
		t.Errorf("inferred %v, want float64", got)
	}
}

func TestClassString(t *testing.T) {
	names := map[Class]string{
		ClassEmpty: "empty", ClassBool: "bool", ClassInt64: "int64",
		ClassFloat64: "float64", ClassDate: "date", ClassTimestamp: "timestamp",
		ClassString: "string",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), want)
		}
	}
}
