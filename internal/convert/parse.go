// Package convert implements ParPaRaw's type-conversion step (§3.3):
// turning each column's concatenated symbol string into typed columnar
// values, with the three collaboration levels (thread-exclusive,
// block-level, device-level) for load balancing, NULL handling, default
// values, rejection of malformed records, and type inference (§4.3).
//
// The field parsers are written against raw byte slices with no
// allocation, the way a GPU kernel would parse them.
package convert

import (
	"errors"
	"fmt"
	"strconv"
)

// Parse errors. They are sentinel values — the hot path never formats.
var (
	ErrSyntax   = errors.New("convert: invalid syntax")
	ErrOverflow = errors.New("convert: value out of range")
	ErrEmpty    = errors.New("convert: empty field")
)

// ParseInt64 parses a decimal integer with optional sign. All-digit
// fields of 8 to 18 digits take the SWAR validate-then-convert fast
// path (swar.go: one load, one flag test, and a three-multiply
// conversion per 8-byte window); everything else — short fields where
// the scalar loop already wins, empty fields, overflow-range
// magnitudes — resolves on the scalar path. The two paths are bit-exact
// substitutes: same value, same error, for every input.
func ParseInt64(b []byte) (int64, error) {
	body := b
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		body = b[1:]
	}
	switch n := len(body); {
	case n >= minFastIntDigits && n <= fastIntDigits:
		u, ok := digitsValue(body)
		if !ok {
			return 0, ErrSyntax // a non-digit byte: exactly the scalar verdict
		}
		v := int64(u) // ≤ 18 digits: cannot overflow
		if b[0] == '-' {
			v = -v
		}
		return v, nil
	case n > 0 && n < minFastIntDigits:
		// Short field: the scalar loop wins here, inlined to spare the
		// extra call. Under 8 digits nothing can overflow, so the loop
		// needs no per-digit bound check; values and errors still match
		// the scalar parser exactly.
		var v int64
		for _, c := range body {
			if c < '0' || c > '9' {
				return 0, ErrSyntax
			}
			v = v*10 + int64(c-'0')
		}
		if b[0] == '-' {
			v = -v
		}
		return v, nil
	}
	return ParseInt64Scalar(b) // empty or sign-only: exact error, or 19+ digits
}

// ParseInt64Scalar is the byte-at-a-time reference parser: the fallback
// for shapes the SWAR classifier defers, the oracle of the SWAR/scalar
// parity suite, and the whole path under Options.NoSWARConvert.
func ParseInt64Scalar(b []byte) (int64, error) {
	if len(b) == 0 {
		return 0, ErrEmpty
	}
	neg := false
	i := 0
	switch b[0] {
	case '-':
		neg = true
		i = 1
	case '+':
		i = 1
	}
	if i == len(b) {
		return 0, ErrSyntax
	}
	// Accumulate negative to cover MinInt64.
	var n int64
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, ErrSyntax
		}
		d := int64(c - '0')
		if n < (minInt64+d)/10 {
			return 0, ErrOverflow
		}
		n = n*10 - d
	}
	if !neg {
		if n == minInt64 {
			return 0, ErrOverflow
		}
		n = -n
	}
	return n, nil
}

const minInt64 = -1 << 63

// maxExactPow10 is the largest power of ten float64 holds exactly.
const maxExactPow10 = 22

// pow10 holds the powers of ten float64 holds exactly, 10^0..10^22.
var pow10 = func() [maxExactPow10 + 1]float64 {
	var t [maxExactPow10 + 1]float64
	p := 1.0
	for i := range t {
		t[i] = p
		p *= 10
	}
	return t
}()

// maxExactMantissa is 2^53: every integer up to it is exact in
// float64.
const maxExactMantissa = 1 << 53

// scale10 returns v·10^exp with a single rounding. It is Clinger's fast
// path: v must be an integer of at most 2^53 and |exp| at most 22, so
// both operands are exact and the one multiply or divide rounds
// correctly. Every other shape goes to parseFloatSlow.
func scale10(v float64, exp int) float64 {
	if exp >= 0 {
		return v * pow10[exp]
	}
	return v / pow10[-exp]
}

// parseFloatSlow converts a syntactically valid float field that falls
// outside scale10's exact range — a mantissa above 2^53 or a decimal
// exponent beyond ±22 — with strconv.ParseFloat, which rounds
// correctly. Overflow keeps this package's verdict: ±Inf with no error
// (strconv's ErrRange is dropped).
func parseFloatSlow(b []byte) (float64, error) {
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil && !errors.Is(err, strconv.ErrRange) {
		return 0, ErrSyntax
	}
	return v, nil
}

// ParseFloat64 parses a decimal floating-point number with optional
// fraction and exponent ("-12.34e-5"). It covers the numeric shapes of
// delimiter-separated data, and its value is correctly rounded: bit for
// bit the value strconv.ParseFloat returns. Overflow gives ±Inf with
// no error; exponents beyond four digits give ErrOverflow.
//
// The payload shapes take SWAR validate-then-convert fast paths
// (swar.go): one-word bodies ("1234.567") classify and convert from a
// single load, two-word bodies ("-73.987654") from two, and longer
// mantissas of up to 15 digits — with or without an exponent — go
// through the general eight-bytes-per-test classifier. The remaining
// shapes resolve on the scalar path: short fields where its per-byte
// loop already wins, 16+ digit mantissas, 4+ digit exponents, and
// scales beyond 10^±22. All paths are bit-exact substitutes: each
// converts an exact mantissa of at most 2^53 and scales it by an exact
// power of ten with scale10's single rounding, and every shape outside
// that range resolves through parseFloatSlow.
func ParseFloat64(b []byte) (float64, error) {
	body, neg := b, false
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		neg = b[0] == '-'
		body = b[1:]
	}
	n := len(body)
	switch {
	case n >= minFastFloatLen && n <= 8:
		if v, ok := floatWord1(body, n); ok {
			if neg {
				v = -v
			}
			return v, nil
		}
	case n > 8 && n <= 16:
		if v, ok := floatWord2(body, n); ok {
			if neg {
				v = -v
			}
			return v, nil
		}
	case n > 0 && n < minFastFloatLen:
		// Short field ("14.5"): the scalar loop wins here, inlined to
		// spare the call. At most six digits accumulate exactly and scale
		// by at most 10^6, so values match the scalar parser bit for bit;
		// exponents, junk, and digitless bodies defer for the exact
		// scalar treatment.
		var mant float64
		digits, frac := 0, 0
		seenDot := false
		for _, c := range body {
			switch {
			case c >= '0' && c <= '9':
				mant = mant*10 + float64(c-'0')
				digits++
				if seenDot {
					frac++
				}
			case c == '.' && !seenDot:
				seenDot = true
			default:
				return ParseFloat64Scalar(b)
			}
		}
		if digits == 0 {
			return 0, ErrSyntax // "." — the scalar verdict
		}
		v := scale10(mant, -frac)
		if neg {
			v = -v
		}
		return v, nil
	}
	if n > 8 {
		// Declined two-word shapes and anything longer: the general
		// classifier handles exponent forms and word-straddling
		// mantissas; short declines go straight to the scalar loop.
		if v, ok := floatClassify(body, neg); ok {
			return v, nil
		}
	}
	return ParseFloat64Scalar(b)
}

// ParseFloat64Scalar is the byte-at-a-time reference parser: the
// fallback for shapes the SWAR classifier defers, the oracle of the
// SWAR/scalar parity suite, and the whole path under
// Options.NoSWARConvert.
func ParseFloat64Scalar(b []byte) (float64, error) {
	if len(b) == 0 {
		return 0, ErrEmpty
	}
	i := 0
	neg := false
	switch b[0] {
	case '-':
		neg = true
		i = 1
	case '+':
		i = 1
	}
	// mant wraps beyond 19 digits; it is read only when digits <= 19.
	var mant uint64
	digits := 0
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		mant = mant*10 + uint64(b[i]-'0')
		digits++
	}
	frac := 0
	if i < len(b) && b[i] == '.' {
		i++
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
			mant = mant*10 + uint64(b[i]-'0')
			frac++
			digits++
		}
	}
	if digits == 0 {
		return 0, ErrSyntax
	}
	exp := 0
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := false
		if i < len(b) && (b[i] == '-' || b[i] == '+') {
			eneg = b[i] == '-'
			i++
		}
		if i == len(b) {
			return 0, ErrSyntax
		}
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
			exp = exp*10 + int(b[i]-'0')
			if exp > 9999 {
				return 0, ErrOverflow
			}
		}
		if eneg {
			exp = -exp
		}
	}
	if i != len(b) {
		return 0, ErrSyntax
	}
	exp -= frac
	if digits > 19 || mant > maxExactMantissa || exp < -maxExactPow10 || exp > maxExactPow10 {
		return parseFloatSlow(b)
	}
	v := scale10(float64(mant), exp)
	if neg {
		v = -v
	}
	return v, nil
}

// ParseBool parses true/false in common spellings.
func ParseBool(b []byte) (bool, error) {
	switch len(b) {
	case 0:
		return false, ErrEmpty
	case 1:
		switch b[0] {
		case 't', 'T', '1':
			return true, nil
		case 'f', 'F', '0':
			return false, nil
		}
	case 4:
		if (b[0] == 't' || b[0] == 'T') && asciiLowerEq(b[1:], "rue") {
			return true, nil
		}
	case 5:
		if (b[0] == 'f' || b[0] == 'F') && asciiLowerEq(b[1:], "alse") {
			return false, nil
		}
	}
	return false, ErrSyntax
}

func asciiLowerEq(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := range b {
		if b[i]|0x20 != s[i] {
			return false
		}
	}
	return true
}

// daysFromCivil converts a Gregorian calendar date to days since the Unix
// epoch (Howard Hinnant's algorithm, branch-light for GPU suitability).
func daysFromCivil(y, m, d int) int64 {
	if m <= 2 {
		y--
	}
	var era int64
	if y >= 0 {
		era = int64(y) / 400
	} else {
		era = (int64(y) - 399) / 400
	}
	yoe := int64(y) - era*400 // [0, 399]
	var mp int64
	if m > 2 {
		mp = int64(m) - 3
	} else {
		mp = int64(m) + 9
	}
	doy := (153*mp+2)/5 + int64(d) - 1     // [0, 365]
	doe := yoe*365 + yoe/4 - yoe/100 + doy // [0, 146096]
	return era*146097 + doe - 719468       // shift to Unix epoch
}

func twoDigits(b []byte) (int, bool) {
	if b[0] < '0' || b[0] > '9' || b[1] < '0' || b[1] > '9' {
		return 0, false
	}
	return int(b[0]-'0')*10 + int(b[1]-'0'), true
}

var daysInMonth = [13]int{0, 31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}

// ParseDate32 parses "YYYY-MM-DD" into days since the Unix epoch.
// Well-formed dates validate in two word tests and convert branch-free
// (swar.go); malformed ones resolve on the scalar path, so values and
// errors match it byte for byte.
func ParseDate32(b []byte) (int64, error) {
	if v, ok := dateWord(b); ok {
		return v, nil
	}
	return ParseDate32Scalar(b)
}

// ParseDate32Scalar is the byte-at-a-time reference parser behind
// ParseDate32; see ParseInt64Scalar for the role the scalar variants
// play.
func ParseDate32Scalar(b []byte) (int64, error) {
	if len(b) == 0 {
		return 0, ErrEmpty
	}
	if len(b) != 10 || b[4] != '-' || b[7] != '-' {
		return 0, ErrSyntax
	}
	y := 0
	for i := 0; i < 4; i++ {
		if b[i] < '0' || b[i] > '9' {
			return 0, ErrSyntax
		}
		y = y*10 + int(b[i]-'0')
	}
	m, ok := twoDigits(b[5:7])
	if !ok {
		return 0, ErrSyntax
	}
	d, ok := twoDigits(b[8:10])
	if !ok {
		return 0, ErrSyntax
	}
	if m < 1 || m > 12 || d < 1 || d > daysInMonth[m] {
		return 0, ErrSyntax
	}
	return daysFromCivil(y, m, d), nil
}

// ParseTimestampMicros parses "YYYY-MM-DD HH:MM:SS[.ffffff]" (a 'T'
// separator is also accepted) into microseconds since the Unix epoch.
// Well-formed timestamps validate in three word tests and convert
// branch-free (swar.go); malformed ones resolve on the scalar path, so
// values and errors match it byte for byte.
func ParseTimestampMicros(b []byte) (int64, error) {
	if v, ok := timestampWord(b); ok {
		return v, nil
	}
	return ParseTimestampMicrosScalar(b)
}

// ParseTimestampMicrosScalar is the byte-at-a-time reference parser
// behind ParseTimestampMicros; see ParseInt64Scalar for the role the
// scalar variants play.
func ParseTimestampMicrosScalar(b []byte) (int64, error) {
	if len(b) == 0 {
		return 0, ErrEmpty
	}
	if len(b) < 19 || (b[10] != ' ' && b[10] != 'T') {
		return 0, ErrSyntax
	}
	days, err := ParseDate32Scalar(b[:10])
	if err != nil {
		return 0, err
	}
	if b[13] != ':' || b[16] != ':' {
		return 0, ErrSyntax
	}
	h, ok1 := twoDigits(b[11:13])
	mi, ok2 := twoDigits(b[14:16])
	s, ok3 := twoDigits(b[17:19])
	if !ok1 || !ok2 || !ok3 || h > 23 || mi > 59 || s > 60 {
		return 0, ErrSyntax
	}
	micros := int64(0)
	if len(b) > 19 {
		if b[19] != '.' || len(b) == 20 || len(b) > 26 {
			return 0, ErrSyntax
		}
		scale := int64(100000)
		for i := 20; i < len(b); i++ {
			if b[i] < '0' || b[i] > '9' {
				return 0, ErrSyntax
			}
			micros += int64(b[i]-'0') * scale
			scale /= 10
		}
	}
	sec := days*86400 + int64(h)*3600 + int64(mi)*60 + int64(s)
	return sec*1e6 + micros, nil
}

// FormatError wraps a parse failure with field context for diagnostics
// outside the hot path.
func FormatError(col int, record int64, value []byte, err error) error {
	v := value
	if len(v) > 32 {
		v = v[:32]
	}
	return fmt.Errorf("convert: column %d record %d value %q: %w", col, record, v, err)
}
