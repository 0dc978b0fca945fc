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
	"math"
	"strconv"
)

// Parse errors. They are sentinel values — the hot path never formats.
var (
	ErrSyntax   = errors.New("convert: invalid syntax")
	ErrOverflow = errors.New("convert: value out of range")
	ErrEmpty    = errors.New("convert: empty field")
)

// ParseInt64 parses a decimal integer with optional sign, accepting
// exactly what strconv.ParseInt(s, 10, 64) accepts. Its errors map onto
// strconv's: ErrEmpty or ErrSyntax where strconv reports ErrSyntax, and
// ErrOverflow where it reports ErrRange.
func ParseInt64(b []byte) (int64, error) {
	if len(b) == 0 {
		return 0, ErrEmpty
	}
	body, neg := b, b[0] == '-'
	if neg || b[0] == '+' {
		body = b[1:]
	}
	if len(body) == 0 {
		return 0, ErrSyntax
	}
	if len(body) <= maxUncheckedDigits {
		var v int64
		for _, c := range body {
			if c < '0' || c > '9' {
				return 0, ErrSyntax
			}
			v = v*10 + int64(c-'0')
		}
		if neg {
			v = -v
		}
		return v, nil
	}
	// Longer bodies accumulate the magnitude as a uint64 and fail at the
	// digit that overflows it, as strconv does, so a non-digit after that
	// digit is an overflow and one before it a syntax error.
	var u uint64
	for _, c := range body {
		if c < '0' || c > '9' {
			return 0, ErrSyntax
		}
		d := uint64(c - '0')
		if u > (math.MaxUint64-d)/10 {
			return 0, ErrOverflow
		}
		u = u*10 + d
	}
	if neg {
		if u > 1<<63 {
			return 0, ErrOverflow
		}
		return int64(-u), nil
	}
	if u > math.MaxInt64 {
		return 0, ErrOverflow
	}
	return int64(u), nil
}

// maxUncheckedDigits is the longest body ParseInt64 accumulates without
// a bound check: no decimal of 18 digits overflows an int64.
const maxUncheckedDigits = 18

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
func ParseFloat64(b []byte) (float64, error) {
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

func isLeap(y int) bool { return y%4 == 0 && (y%100 != 0 || y%400 == 0) }

// ParseDate32 parses "YYYY-MM-DD" into days since the Unix epoch. It
// accepts only calendar dates, so February 29 needs a leap year.
func ParseDate32(b []byte) (int64, error) {
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
	if m < 1 || m > 12 || d < 1 || d > daysInMonth[m] || m == 2 && d == 29 && !isLeap(y) {
		return 0, ErrSyntax
	}
	return daysFromCivil(y, m, d), nil
}

// ParseTimestampMicros parses "YYYY-MM-DD HH:MM:SS[.ffffff]" (a 'T'
// separator is also accepted) into microseconds since the Unix epoch.
// Like time.Parse it has no leap second: seconds run from 00 to 59.
func ParseTimestampMicros(b []byte) (int64, error) {
	if len(b) == 0 {
		return 0, ErrEmpty
	}
	if len(b) < 19 || (b[10] != ' ' && b[10] != 'T') {
		return 0, ErrSyntax
	}
	days, err := ParseDate32(b[:10])
	if err != nil {
		return 0, err
	}
	if b[13] != ':' || b[16] != ':' {
		return 0, ErrSyntax
	}
	h, ok1 := twoDigits(b[11:13])
	mi, ok2 := twoDigits(b[14:16])
	s, ok3 := twoDigits(b[17:19])
	if !ok1 || !ok2 || !ok3 || h > 23 || mi > 59 || s > 59 {
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
