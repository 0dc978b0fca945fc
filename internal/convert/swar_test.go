package convert

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

// TestNonDigitFlagsExact proves the SWAR byte classifier exact over the
// whole byte alphabet — unlike Mycroft's hack there must be no false
// positives at any position, because the float classifier trusts the
// flag positions to locate the dot and exponent marker.
func TestNonDigitFlagsExact(t *testing.T) {
	for c := 0; c < 256; c++ {
		for pos := 0; pos < 8; pos++ {
			var buf [8]byte
			for i := range buf {
				buf[i] = '5'
			}
			buf[pos] = byte(c)
			flags := nonDigitFlags(binary.LittleEndian.Uint64(buf[:]))
			want := uint64(0)
			if c < '0' || c > '9' {
				want = 0x80 << (uint(pos) * 8)
			}
			if flags != want {
				t.Fatalf("nonDigitFlags(byte %#x at %d) = %#x, want %#x", c, pos, flags, want)
			}
		}
	}
}

// TestParse8Digits checks the three-multiply digit-chunk kernel against
// strconv over random and boundary chunks.
func TestParse8Digits(t *testing.T) {
	cases := []string{"00000000", "99999999", "12345678", "00000001", "10000000", "09090909"}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		cases = append(cases, fmt.Sprintf("%08d", rng.Intn(100000000)))
	}
	for _, s := range cases {
		want, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if got := parse8Digits(binary.LittleEndian.Uint64([]byte(s))); got != want {
			t.Fatalf("parse8Digits(%q) = %d, want %d", s, got, want)
		}
	}
}

// TestConvertDigits checks the chunked conversion (8-digit chunks plus
// padded tail) across every length the fast paths use.
func TestConvertDigits(t *testing.T) {
	for _, s := range []string{
		"", "0", "7", "42", "123", "999999", "1234567", "12345678",
		"123456789", "999999999999999", "000000000000001", "100000000000000",
	} {
		var want uint64
		for _, c := range s {
			want = want*10 + uint64(c-'0')
		}
		if got := convertDigits([]byte(s)); got != want {
			t.Fatalf("convertDigits(%q) = %d, want %d", s, got, want)
		}
	}
}

// parserEdgeCases is the shared table of shapes that historically
// distinguish numeric parsers: long mantissas straddling the float64
// exactness boundary, exponent over/underflow, signs in every legal
// position, lone punctuation, and timestamps with and without
// fractional microseconds. Every case runs through the SWAR/scalar
// parity assertions below — the values here are inputs, not expected
// outputs, because the contract under test is agreement, with the
// scalar path as the oracle.
var parserEdgeCases = []string{
	// integers: fast-path range, the 18/19-digit boundary, overflow
	"0", "7", "-7", "+42", "000000000000000042",
	"999999999999999999",                          // 18 digits: largest fast-path int
	"1000000000000000000",                         // 19 digits: falls back
	"9223372036854775807",                         // MaxInt64
	"-9223372036854775808",                        // MinInt64
	"9223372036854775808", "-9223372036854775809", // overflow both ways
	"99999999999999999999999999", // way past int64
	// float mantissas around the 15-digit exactness boundary
	"123456789012345", "1234567890123456", "12345678901234567",
	"999999999999999999999.999999",     // 17+ digit mantissa
	"0.000000000000000000000000000001", // long fraction, leading zeros
	"00000000000000000001.5",           // leading zeros past the digit cap
	// dots and signs everywhere legal (and some illegal)
	".5", "5.", "-.5", "+.5", ".", "-", "+", "-.", "+.e3",
	"1.2.3", "--1", "++1", "1-", "1+",
	// exponents: signs, over/underflow, boundary digit counts
	"1e3", "1E3", "1e+3", "1e-3", "-1.5e-2", "+2.5E4",
	"1e", "1e+", "1e-", "e3", ".e3",
	"1e99", "1e999", "1e-999", // ±inf / 0 via scale10, 3-digit fast path
	"1e9999", "1e-9999", // 4 digits: falls back, still in range
	"1e10000", "-1e10000", // scalar overflow error
	"2.2250738585072011e-308", // the classic slow-path subnormal
	"1.7976931348623157e308",  // MaxFloat64
	"0.00001e310", "10000e-310",
	// non-numeric junk and embedded terminators
	"", " ", " 1", "1 ", "abc", "12a", "a12", "1\x001", "\xff\xfe",
	"NaN", "inf", "Infinity", "0x1p3",
	// dates
	"1970-01-01", "2000-02-29", "2100-12-31", "0001-01-01",
	"2018-13-01", "2018-02-30", "2018-00-10", "2018-01-00",
	"201a-01-01", "2018/01/01", "2018-1-01", "2018-01-1", "2018-01-010",
	// timestamps with/without fractional micros, 'T' separator, range edges
	"2018-06-15 13:45:09", "2018-06-15T13:45:09",
	"2018-06-15 13:45:09.5", "2018-06-15 13:45:09.123456",
	"2018-06-15 13:45:09.000001", "2018-06-15 23:59:60",
	"2018-06-15 24:00:00", "2018-06-15 13:60:09", "2018-06-15 13:45:61",
	"2018-06-15 13:45:09.", "2018-06-15 13:45:09.1234567",
	"2018-06-15 13:45:09,5", "2018-06-15x13:45:09",
	"1969-12-31 23:59:59.999999", "1970-01-01 00:00:00",
}

// TestSWARScalarParityTable asserts, for every edge case, that the
// dispatching parsers (SWAR fast path with scalar fallback) and the
// pure scalar parsers agree byte-for-byte on accept/reject, the error
// value, and — bit-for-bit — the parsed value.
func TestSWARScalarParityTable(t *testing.T) {
	for _, s := range parserEdgeCases {
		assertParserParity(t, []byte(s))
	}
}

// assertParserParity runs all four numeric/temporal parsers on b and
// fails unless the SWAR-dispatching and scalar paths are bit-exact
// substitutes (the swar.go contract).
func assertParserParity(t *testing.T, b []byte) {
	t.Helper()
	iv, ie := ParseInt64(b)
	siv, sie := ParseInt64Scalar(b)
	if iv != siv || ie != sie {
		t.Errorf("ParseInt64(%q) = (%d, %v), scalar (%d, %v)", b, iv, ie, siv, sie)
	}
	fv, fe := ParseFloat64(b)
	sfv, sfe := ParseFloat64Scalar(b)
	if math.Float64bits(fv) != math.Float64bits(sfv) || fe != sfe {
		t.Errorf("ParseFloat64(%q) = (%x, %v), scalar (%x, %v)",
			b, math.Float64bits(fv), fe, math.Float64bits(sfv), sfe)
	}
	dv, de := ParseDate32(b)
	sdv, sde := ParseDate32Scalar(b)
	if dv != sdv || de != sde {
		t.Errorf("ParseDate32(%q) = (%d, %v), scalar (%d, %v)", b, dv, de, sdv, sde)
	}
	tv, te := ParseTimestampMicros(b)
	stv, ste := ParseTimestampMicrosScalar(b)
	if tv != stv || te != ste {
		t.Errorf("ParseTimestampMicros(%q) = (%d, %v), scalar (%d, %v)", b, tv, te, stv, ste)
	}
}

// TestSWARFastPathTaken guards against the fast paths silently decaying
// into permanent fallbacks: the representative workload shapes must be
// handled by the SWAR stages themselves.
func TestSWARFastPathTaken(t *testing.T) {
	for _, s := range []string{"12345678", "35102009", "123456789012345678"} {
		if _, ok := digitsValue([]byte(s)); !ok {
			t.Errorf("digitsValue(%q): expected fast path", s)
		}
	}
	for _, s := range []string{"1234.567", "199.9999", "1234567."} {
		if _, ok := floatWord1([]byte(s), len(s)); !ok {
			t.Errorf("floatWord1(%q): expected fast path", s)
		}
	}
	for _, s := range []string{"73.987654", "123456789.012345", "12345.678901", "12345678."} {
		if _, ok := floatWord2([]byte(s), len(s)); !ok {
			t.Errorf("floatWord2(%q): expected fast path", s)
		}
	}
	for _, s := range []string{"1e3", "1.5e-2", "12345678901.2345"} {
		if _, ok := floatClassify([]byte(s), false); !ok {
			t.Errorf("floatClassify(%q): expected fast path", s)
		}
	}
	if _, ok := dateWord([]byte("2018-06-15")); !ok {
		t.Error("dateWord: expected fast path")
	}
	for _, s := range []string{"2018-06-15 13:45:09", "2018-06-15T13:45:09.123456"} {
		if _, ok := timestampWord([]byte(s)); !ok {
			t.Errorf("timestampWord(%q): expected fast path", s)
		}
	}
}

// TestParseFloat64MatchesStrconv pins the precision contract of both
// float paths: the parsed value is bit for bit strconv.ParseFloat's
// correctly rounded result.
func TestParseFloat64MatchesStrconv(t *testing.T) {
	for _, s := range []string{
		"0", "199.99", "-19.5", "0.1", "3.14159265358979", "142.35",
		"12345678901234", "1e3", "-1.5e-2", "2.5E4", "0.000001", "1e15",
		"99999999999999.9", "123456.789012",
	} {
		checkFloatMatchesStrconv(t, s)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		mant := rng.Int63n(int64(1e15))
		frac := rng.Intn(7)
		s := strconv.FormatFloat(float64(mant)/math.Pow10(frac), 'f', frac, 64)
		checkFloatMatchesStrconv(t, s)
	}
}

// checkFloatMatchesStrconv requires both float parsers to return
// strconv.ParseFloat's value for s, bit for bit and without error.
func checkFloatMatchesStrconv(t *testing.T, s string) {
	t.Helper()
	want, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("strconv rejects %q: %v", s, err)
	}
	for _, p := range []struct {
		name string
		fn   func([]byte) (float64, error)
	}{{"swar", ParseFloat64}, {"scalar", ParseFloat64Scalar}} {
		got, err := p.fn([]byte(s))
		if err != nil {
			t.Errorf("%s(%q): %v", p.name, s, err)
			continue
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s(%q) = %v (%x), want %v (%x)",
				p.name, s, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestParseFloat64CorrectlyRounded holds inputs beyond float64's exact
// powers of ten (10^22) or exact mantissas (2^53), where a fast path
// that scales by an inexact power of ten rounds twice, and requires
// each value to survive the 'g' formatting WriteCSV uses.
func TestParseFloat64CorrectlyRounded(t *testing.T) {
	for _, s := range []string{
		"7e23",                     // 10^23 is not exact in float64
		"700000000000000000000000", // found by FuzzParse: written back as 7e+23
		"123456789012345678901234", // 24-digit mantissa
		"1.7976931348623157e308",   // MaxFloat64
		"9007199254740993",         // 2^53 + 1: the mantissa is not exact
		"1e22", "1e-22", "1e-23", "4.9e-324", "2.2250738585072011e-308",
		"-0", "0e500", "1.5e-400",
	} {
		checkFloatMatchesStrconv(t, s)
		v, _ := ParseFloat64([]byte(s))
		g := strconv.FormatFloat(v, 'g', -1, 64)
		checkFloatMatchesStrconv(t, g)
		if back, _ := ParseFloat64([]byte(g)); math.Float64bits(back) != math.Float64bits(v) {
			t.Errorf("round trip %q -> %q -> %v, want %v", s, g, back, v)
		}
	}
	// Overflow keeps the package's verdict: ±Inf and no error, where
	// strconv reports ErrRange.
	for _, s := range []string{"1.7976931348623159e308", "-1e400", "123456789e999"} {
		for _, fn := range []func([]byte) (float64, error){ParseFloat64, ParseFloat64Scalar} {
			if v, err := fn([]byte(s)); err != nil || !math.IsInf(v, 0) {
				t.Errorf("%q = %v, %v; want ±Inf, nil", s, v, err)
			}
		}
	}
}

// TestSWARScalarParityQuick drives the parity assertion with
// generatively built numeric strings — random digit counts either side
// of every fast-path boundary, random sign/dot/exponent placement.
func TestSWARScalarParityQuick(t *testing.T) {
	digits := func(rng *rand.Rand, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('0' + rng.Intn(10))
		}
		return b
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var b []byte
		if rng.Intn(3) > 0 {
			b = append(b, "+-"[rng.Intn(2)])
		}
		b = append(b, digits(rng, rng.Intn(22))...)
		if rng.Intn(2) == 0 {
			b = append(b, '.')
			b = append(b, digits(rng, rng.Intn(20))...)
		}
		if rng.Intn(3) == 0 {
			b = append(b, "eE"[rng.Intn(2)])
			if rng.Intn(2) == 0 {
				b = append(b, "+-"[rng.Intn(2)])
			}
			b = append(b, digits(rng, rng.Intn(6))...)
		}
		if rng.Intn(8) == 0 { // occasional corruption
			b = append(b, byte(rng.Intn(256)))
		}
		assertParserParity(t, b)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// FuzzParserParity is the coverage-guided form of the parity suite:
// arbitrary bytes through every numeric/temporal parser pair must agree
// on value bits and error identity.
func FuzzParserParity(f *testing.F) {
	for _, s := range parserEdgeCases {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		assertParserParity(t, b)
	})
}

// TestPolicyParsersDispatch pins the materialisation dispatch: the
// default Policy selects the SWAR validate-then-convert set, and
// Policy.NoSWAR (the NoSWARConvert ablation axis) the scalar reference
// set.
func TestPolicyParsersDispatch(t *testing.T) {
	if (Policy{}).parsers() != swarParsers {
		t.Error("default Policy must select the SWAR parser set")
	}
	if (Policy{NoSWAR: true}).parsers() != scalarParsers {
		t.Error("Policy.NoSWAR must select the scalar parser set")
	}
}
