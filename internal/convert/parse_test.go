package convert

import (
	"errors"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
	"time"
)

func TestParseInt64(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  error
	}{
		{"0", 0, nil},
		{"1941", 1941, nil},
		{"-7", -7, nil},
		{"+42", 42, nil},
		{"9223372036854775807", math.MaxInt64, nil},
		{"-9223372036854775808", math.MinInt64, nil},
		{"9223372036854775808", 0, ErrOverflow},
		{"-9223372036854775809", 0, ErrOverflow},
		// As in strconv, a non-digit reads as a syntax error unless the
		// digits before it already overflow a uint64.
		{"-9223372036854775809a", 0, ErrSyntax},
		{"99999999999999999999a", 0, ErrOverflow},
		{"", 0, ErrEmpty},
		{"-", 0, ErrSyntax},
		{"12a", 0, ErrSyntax},
		{"1.5", 0, ErrSyntax},
		{" 1", 0, ErrSyntax},
	}
	for _, c := range cases {
		got, err := ParseInt64([]byte(c.in))
		if err != c.err {
			t.Errorf("ParseInt64(%q) err = %v, want %v", c.in, err, c.err)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseInt64(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestParseInt64QuickAgainstStrconv(t *testing.T) {
	f := func(v int64) bool {
		got, err := ParseInt64([]byte(strconv.FormatInt(v, 10)))
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseFloat64(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"0", 0},
		{"199.99", 199.99},
		{"-19.5", -19.5},
		{"1e3", 1000},
		{"-1.5e-2", -0.015},
		{"+2.5E4", 25000},
		{".5", 0.5},
		{"5.", 5},
		{"12345678901234", 12345678901234},
	}
	for _, c := range cases {
		got, err := ParseFloat64([]byte(c.in))
		if err != nil {
			t.Errorf("ParseFloat64(%q) err = %v", c.in, err)
			continue
		}
		if math.Abs(got-c.want) > math.Abs(c.want)*1e-12 {
			t.Errorf("ParseFloat64(%q) = %g, want %g", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", ".", "-", "1e", "1e+", "abc", "1.2.3", "--1", "1 "} {
		if _, err := ParseFloat64([]byte(bad)); err == nil {
			t.Errorf("ParseFloat64(%q): want error", bad)
		}
	}
}

func TestParseFloat64QuickAgainstStrconv(t *testing.T) {
	f := func(mantissa int32, exp int8) bool {
		s := strconv.FormatFloat(float64(mantissa)*math.Pow(10, float64(exp%30)), 'f', -1, 64)
		want, _ := strconv.ParseFloat(s, 64)
		got, err := ParseFloat64([]byte(s))
		if err != nil {
			return false
		}
		if want == 0 {
			return got == 0
		}
		return math.Abs(got-want) <= math.Abs(want)*1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestParseBool(t *testing.T) {
	trues := []string{"1", "t", "T", "true", "True", "TRUE"}
	falses := []string{"0", "f", "F", "false", "False", "FALSE"}
	for _, s := range trues {
		if v, err := ParseBool([]byte(s)); err != nil || !v {
			t.Errorf("ParseBool(%q) = %v, %v", s, v, err)
		}
	}
	for _, s := range falses {
		if v, err := ParseBool([]byte(s)); err != nil || v {
			t.Errorf("ParseBool(%q) = %v, %v", s, v, err)
		}
	}
	for _, s := range []string{"", "yes", "2", "truee", "fals"} {
		if _, err := ParseBool([]byte(s)); err == nil {
			t.Errorf("ParseBool(%q): want error", s)
		}
	}
}

func TestParseDate32AgainstTime(t *testing.T) {
	dates := []string{
		"1970-01-01", "1970-01-02", "1969-12-31", "2000-02-29",
		"2018-06-15", "1900-01-01", "2100-12-31", "0001-01-01",
	}
	for _, s := range dates {
		want, err := time.Parse(time.DateOnly, s)
		if err != nil {
			t.Fatal(err)
		}
		got, perr := ParseDate32([]byte(s))
		if perr != nil {
			t.Errorf("ParseDate32(%q): %v", s, perr)
			continue
		}
		if got != daysSinceEpoch(want) {
			t.Errorf("ParseDate32(%q) = %d, want %d", s, got, daysSinceEpoch(want))
		}
	}
	for _, bad := range []string{"", "2018-6-15", "2018/06/15", "2018-13-01", "2018-02-30", "2018-02-29", "1900-02-29", "201a-01-01", "2018-01-001"} {
		if _, err := ParseDate32([]byte(bad)); err == nil {
			t.Errorf("ParseDate32(%q): want error", bad)
		}
	}
}

// daysSinceEpoch is the day number ParseDate32 should return for t: the
// floor of t's Unix time in days.
func daysSinceEpoch(t time.Time) int64 {
	days := t.Unix() / 86400
	if t.Unix() < 0 && t.Unix()%86400 != 0 {
		days--
	}
	return days
}

func TestParseTimestampMicrosAgainstTime(t *testing.T) {
	cases := []string{
		"2018-06-15 13:45:09",
		"2018-06-15T13:45:09",
		"1970-01-01 00:00:00",
		"1969-12-31 23:59:59",
		"2018-06-15 13:45:09.5",
		"2018-06-15 13:45:09.123456",
	}
	for _, s := range cases {
		want, err := parseTimestamp(s)
		if err != nil {
			t.Fatal(err)
		}
		got, perr := ParseTimestampMicros([]byte(s))
		if perr != nil {
			t.Errorf("ParseTimestampMicros(%q): %v", s, perr)
			continue
		}
		if got != want.UnixMicro() {
			t.Errorf("ParseTimestampMicros(%q) = %d, want %d", s, got, want.UnixMicro())
		}
	}
	for _, bad := range []string{"", "2018-06-15", "2018-06-15 25:00:00", "2018-06-15 23:59:60", "2018-06-15 13:45", "2018-06-15 13:45:09.", "2018-06-15 13:45:09.1234567"} {
		if _, err := ParseTimestampMicros([]byte(bad)); err == nil {
			t.Errorf("ParseTimestampMicros(%q): want error", bad)
		}
	}
}

// parseTimestamp is time.Parse of a ParseTimestampMicros shape: the 'T'
// separator becomes a space, and a fraction selects the layout with
// fractional seconds.
func parseTimestamp(s string) (time.Time, error) {
	if len(s) > 10 && s[10] == 'T' {
		s = s[:10] + " " + s[11:]
	}
	layout := time.DateTime
	if len(s) > 19 {
		layout = "2006-01-02 15:04:05.999999"
	}
	return time.Parse(layout, s)
}

// TestParseFloat64MatchesStrconv pins the precision contract of the
// float parser: the parsed value is bit for bit strconv.ParseFloat's
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

// checkFloatMatchesStrconv requires ParseFloat64 to return
// strconv.ParseFloat's value for s, bit for bit and without error.
func checkFloatMatchesStrconv(t *testing.T, s string) {
	t.Helper()
	want, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("strconv rejects %q: %v", s, err)
	}
	got, err := ParseFloat64([]byte(s))
	if err != nil {
		t.Errorf("ParseFloat64(%q): %v", s, err)
		return
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("ParseFloat64(%q) = %v (%x), want %v (%x)",
			s, got, math.Float64bits(got), want, math.Float64bits(want))
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
		if v, err := ParseFloat64([]byte(s)); err != nil || !math.IsInf(v, 0) {
			t.Errorf("%q = %v, %v; want ±Inf, nil", s, v, err)
		}
	}
}

// parserEdgeCases is the shared table of shapes that historically
// distinguish numeric parsers: long mantissas straddling the float64
// exactness boundary, exponent over/underflow, signs in every legal
// position, lone punctuation, and timestamps with and without
// fractional microseconds. The values here are inputs, not expected
// outputs: checkAgainstStdlib takes the expected outputs from the
// standard library.
var parserEdgeCases = []string{
	// integers: the 18/19-digit boundary of the unchecked loop, overflow
	"0", "7", "-7", "+42", "000000000000000042",
	"999999999999999999",                          // 18 digits: longest unchecked body
	"1000000000000000000",                         // 19 digits: checked
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
	"1e99", "1e999", "1e-999", // ±Inf / 0 through strconv
	"1e9999", "1e-9999", // 4 digits: still in range
	"1e10000", "-1e10000", // 5 digits: ErrOverflow
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
	// February 29 needs a leap year (appended, so earlier seeds keep
	// their numbers)
	"2018-02-29", "1900-02-29", "2018-02-29 12:00:00",
}

// TestSWARScalarParityTable holds the numeric and temporal parsers to
// the standard library on every edge case. The name comes from the
// suite that held a SWAR fast path to these parsers; with one parser
// per type left, the standard library is the oracle.
func TestSWARScalarParityTable(t *testing.T) {
	for _, s := range parserEdgeCases {
		checkAgainstStdlib(t, []byte(s))
	}
}

// TestSWARScalarParityQuick holds the same parsers to the standard
// library on generated numeric strings: random digit counts either side
// of the 18-digit, 2^53 and 10^22 boundaries, with random sign, dot and
// exponent placement and an occasional stray byte.
func TestSWARScalarParityQuick(t *testing.T) {
	digits := func(rng *rand.Rand, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('0' + rng.Intn(10))
		}
		return b
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
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
		if rng.Intn(8) == 0 {
			b = append(b, byte(rng.Intn(256)))
		}
		checkAgainstStdlib(t, b)
	}
}

// FuzzParserParity is the coverage-guided form of
// TestSWARScalarParityTable and TestSWARScalarParityQuick: arbitrary
// bytes through every numeric and temporal parser must agree with the
// standard library.
func FuzzParserParity(f *testing.F) {
	for _, s := range parserEdgeCases {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkAgainstStdlib(t, b)
	})
}

// checkAgainstStdlib holds the four numeric and temporal parsers to
// independent oracles:
//   - ParseInt64 agrees with strconv.ParseInt(s, 10, 64) on the value
//     and on accept or reject; strconv's ErrSyntax is ErrEmpty or
//     ErrSyntax here, and its ErrRange is ErrOverflow.
//   - Every value ParseFloat64 accepts is strconv.ParseFloat's, bit for
//     bit (±Inf where strconv reports ErrRange), and every input strconv
//     rejects with ErrSyntax is rejected.
//   - Every date and timestamp ParseDate32 and ParseTimestampMicros
//     accept is time.Parse's.
func checkAgainstStdlib(t *testing.T, b []byte) {
	t.Helper()
	s := string(b)

	iv, ierr := ParseInt64(b)
	switch wv, werr := strconv.ParseInt(s, 10, 64); {
	case werr == nil:
		if ierr != nil || iv != wv {
			t.Errorf("ParseInt64(%q) = %d, %v; strconv %d", b, iv, ierr, wv)
		}
	case errors.Is(werr, strconv.ErrRange):
		if ierr != ErrOverflow {
			t.Errorf("ParseInt64(%q) err = %v; strconv %v", b, ierr, werr)
		}
	default:
		if ierr != ErrSyntax && ierr != ErrEmpty {
			t.Errorf("ParseInt64(%q) = %d, %v; strconv %v", b, iv, ierr, werr)
		}
	}

	fv, ferr := ParseFloat64(b)
	wf, wferr := strconv.ParseFloat(s, 64)
	if ferr == nil {
		if wferr != nil && !errors.Is(wferr, strconv.ErrRange) {
			t.Errorf("ParseFloat64(%q) = %v; strconv rejects it: %v", b, fv, wferr)
		} else if math.Float64bits(fv) != math.Float64bits(wf) {
			t.Errorf("ParseFloat64(%q) = %v (%x); strconv %v (%x)",
				b, fv, math.Float64bits(fv), wf, math.Float64bits(wf))
		}
	}

	if dv, err := ParseDate32(b); err == nil {
		want, terr := time.Parse(time.DateOnly, s)
		if terr != nil {
			t.Errorf("ParseDate32(%q) = %d; time.Parse rejects it: %v", b, dv, terr)
		} else if dv != daysSinceEpoch(want) {
			t.Errorf("ParseDate32(%q) = %d; time.Parse %d", b, dv, daysSinceEpoch(want))
		}
	}
	if tv, err := ParseTimestampMicros(b); err == nil {
		want, terr := parseTimestamp(s)
		if terr != nil {
			t.Errorf("ParseTimestampMicros(%q) = %d; time.Parse rejects it: %v", b, tv, terr)
		} else if tv != want.UnixMicro() {
			t.Errorf("ParseTimestampMicros(%q) = %d; time.Parse %d", b, tv, want.UnixMicro())
		}
	}
}

func TestFormatError(t *testing.T) {
	err := FormatError(3, 42, []byte("abcdefghijklmnopqrstuvwxyz0123456789"), ErrSyntax)
	if err == nil {
		t.Fatal("nil error")
	}
	msg := err.Error()
	if len(msg) == 0 {
		t.Error("empty message")
	}
}
