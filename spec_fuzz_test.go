package parparaw

// The query-string grammars the daemon parses from untrusted clients:
// partition sizes, column selections and row predicates. Each must
// either reject its input or produce a value that is safe to act on.
// Run with: go test -fuzz FuzzParseSizeSpec -fuzztime 30s (likewise
// FuzzParseSelectSpec, FuzzParseWhereSpec).

import (
	"errors"
	"math"
	"math/big"
	"strings"
	"testing"

	"repro/parparawerr"
)

func TestParseSizeSpec(t *testing.T) {
	cases := []struct {
		spec string
		want int // 0: rejected
	}{
		{"65536", 65536},
		{"1B", 1},
		{"32MB", 32 << 20},
		{" 2kb ", 2 << 10},
		{"1GB", 1 << 30},
		{"8589934591GB", 8589934591 << 30},
		{"0", 0},
		{"-3MB", 0},
		{"MB", 0},
		{"1.5MB", 0},
		{"", 0},
		// n*unit would wrap: to -2^63 and to 0.
		{"8589934592GB", 0},
		{"17179869184GB", 0},
		{"9223372036854775807KB", 0},
		{"99999999999999999999", 0},
	}
	for _, tc := range cases {
		got, err := ParseSizeSpec(tc.spec)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("ParseSizeSpec(%q) = %d, want an error", tc.spec, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ParseSizeSpec(%q) = %d, %v, want %d", tc.spec, got, err, tc.want)
		}
	}
}

// refSizeSpec is ParseSizeSpec's reference in arbitrary precision: the
// size n×unit when the numeral n is a positive integer and the product
// fits an int, else ok false.
func refSizeSpec(s string) (int, bool) {
	u := strings.ToUpper(strings.TrimSpace(s))
	unit := int64(1)
	for _, suf := range []struct {
		name string
		mult int64
	}{{"GB", 1 << 30}, {"MB", 1 << 20}, {"KB", 1 << 10}, {"B", 1}} {
		if strings.HasSuffix(u, suf.name) {
			u, unit = strings.TrimSuffix(u, suf.name), suf.mult
			break
		}
	}
	n, ok := new(big.Int).SetString(strings.TrimSpace(u), 10)
	if !ok || n.Sign() <= 0 {
		return 0, false
	}
	n.Mul(n, big.NewInt(unit))
	if !n.IsInt64() || n.Int64() > math.MaxInt {
		return 0, false
	}
	return int(n.Int64()), true
}

func FuzzParseSizeSpec(f *testing.F) {
	for _, s := range []string{"65536", "32MB", "1kb", "8589934592GB", "17179869184GB", "-3MB", "+7B", " 0 ", "GB", "1e3"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseSizeSpec(s)
		want, ok := refSizeSpec(s)
		if err != nil {
			if ok {
				t.Fatalf("ParseSizeSpec(%q) rejected a valid size %d: %v", s, want, err)
			}
			return
		}
		if got <= 0 {
			t.Fatalf("ParseSizeSpec(%q) = %d, want a positive size or an error", s, got)
		}
		if !ok || got != want {
			t.Fatalf("ParseSizeSpec(%q) = %d, reference %d (ok %v)", s, got, want, ok)
		}
	})
}

// fuzzSchema is a three-column schema: with it, predicates and
// selections outside the schema are configuration errors at NewEngine.
var fuzzSchema = NewSchema(
	Field{Name: "a", Type: Int64},
	Field{Name: "b", Type: String},
	Field{Name: "c", Type: Float64},
)

// checkFuzzedEngine builds an engine from opts and requires it to build
// or fail with a typed configuration error; a built engine then parses a
// small input without panicking (an error, such as a selected column
// beyond the input's columns, is fine).
func checkFuzzedEngine(t *testing.T, spec string, opts Options) {
	t.Helper()
	e, err := NewEngine(opts)
	if err != nil {
		var ce *parparawerr.ConfigError
		if !errors.Is(err, ErrConfig) || !errors.As(err, &ce) {
			t.Fatalf("spec %q: NewEngine error %v (%T) is not a ConfigError", spec, err, err)
		}
		if HTTPStatus(err) != 400 {
			t.Fatalf("spec %q: config error maps to status %d", spec, HTTPStatus(err))
		}
		return
	}
	defer e.Close()
	_, _ = e.Parse([]byte("1,x,2.5\n-3,,\n"))
}

func FuzzParseSelectSpec(f *testing.F) {
	for _, s := range []string{"0", "2,0", "1,1", "-1", " 3 , 4", "a,b", "", ",", "99999999999999999999"} {
		f.Add(s, false)
	}
	f.Fuzz(func(t *testing.T, s string, withSchema bool) {
		sel, err := ParseSelectSpec(s)
		if err != nil {
			return
		}
		opts := Options{Scan: ScanOptions{Select: sel}}
		if withSchema {
			opts.Schema = fuzzSchema
		}
		checkFuzzedEngine(t, s, opts)
	})
}

func FuzzParseWhereSpec(f *testing.F) {
	for _, s := range []string{
		"0=1", "1!=x", "1^=ab", "0:null", "2:notnull", "0:int:-5:5", "2:float:0.5:1e3",
		"0:int:5:1", "7=z", "0=1;1:notnull", "garbage", ";", "0:int:5", "2:float:nan:1",
	} {
		f.Add(s, true)
	}
	f.Fuzz(func(t *testing.T, s string, withSchema bool) {
		where, err := ParseWhereSpec(s)
		if err != nil {
			return
		}
		opts := Options{Scan: ScanOptions{Where: where}}
		if withSchema {
			opts.Schema = fuzzSchema
		}
		checkFuzzedEngine(t, s, opts)
	})
}
