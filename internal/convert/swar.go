package convert

// This file implements the SWAR validate-then-convert fast paths of the
// convert phase's field parsers. The scalar parsers in parse.go walk one
// byte per iteration with a data-dependent branch each; for the shapes
// that dominate real delimiter-separated data (all-digits integers,
// digits-dot-digits decimals, fixed-layout timestamps) that per-byte
// work is replaced by a two-stage design, the field-level analogue of
// the §4.5 parse-kernel machinery (internal/device/runscanner.go):
//
//	validate  one pass over the field, eight bytes per test, classifies
//	          every byte as digit / non-digit with exact (non-Mycroft)
//	          nibble arithmetic and records the positions of the few
//	          permitted non-digits — sign, dot, exponent marker;
//	convert   branch-free digit-chunk conversion: eight ASCII digits
//	          become an integer with three multiplies (parse8Digits),
//	          and each timestamp component is extracted from the
//	          already-validated words with shift-and-mask arithmetic.
//
// A field whose shape the classifier does not recognise — or whose
// magnitude could make the chunked conversion round differently from
// the scalar accumulation — falls back to the scalar parser, so the
// fast paths are *bit-exact* substitutes: same value, same error, for
// every input (pinned by TestSWARScalarParity* and FuzzParserParity).
// That mirrors what a GPU-side parser provides: a data-parallel common
// case with a slow path for rare shapes, never a different answer.

import (
	"encoding/binary"
	"math/bits"
)

const (
	swarZeros64    = 0x3030303030303030 // ASCII '0' in every byte
	swarHigh64     = 0x8080808080808080
	swarLowNibbles = 0x0F0F0F0F0F0F0F0F
)

// nonDigitFlags returns a word whose byte i has its high bit set exactly
// when byte i of w is not an ASCII digit. Unlike Mycroft's null-byte
// hack this is exact: both range tests are nibble-local (the sums cannot
// carry across a byte boundary), so there are no false positives to
// reason away.
func nonDigitFlags(w uint64) uint64 {
	// High nibble must be 3: isolate it, XOR with 3; any non-zero
	// residue flags the byte. residue+0x7F sets bit 7 iff residue > 0
	// (residue ≤ 0x0F, so the sum ≤ 0x8E never carries out of the byte).
	hi := (w >> 4) & swarLowNibbles
	hiBad := ((hi ^ 0x0303030303030303) + 0x7F7F7F7F7F7F7F7F) & swarHigh64
	// Low nibble must be ≤ 9: nibble+6 sets bit 4 iff nibble ≥ 10 (the
	// sum ≤ 0x15 never carries out of the byte). Shift bit 4 to bit 7.
	lo := w & swarLowNibbles
	loBad := ((lo + 0x0606060606060606) & 0x1010101010101010) << 3
	return hiBad | loBad
}

// allDigits8 reports whether all 8 bytes of w are ASCII digits.
func allDigits8(w uint64) bool { return nonDigitFlags(w) == 0 }

// parse8Digits converts eight ASCII digits, held little-endian in w
// (first digit in the lowest byte), to their integer value with three
// multiplies: one folds adjacent digits into two-digit bytes, the other
// two fold the four two-digit values into the final number through the
// high half of a 64-bit product.
func parse8Digits(w uint64) uint64 {
	w -= swarZeros64
	w = w*10 + w>>8 // byte i = digit(i)*10 + digit(i+1), for even i
	const (
		mask = 0x000000FF000000FF
		mul1 = 0x000F424000000064 // 100 + (1000000 << 32)
		mul2 = 0x0000271000000001 // 1 + (10000 << 32)
	)
	return ((w&mask)*mul1 + ((w>>16)&mask)*mul2) >> 32
}

// pairDigits folds each pair of adjacent digit bytes of an
// already-validated word into one byte: byte i of the result is
// digit(i)*10 + digit(i+1) (≤ 99, so no byte ever carries). The
// timestamp converter reads its two-digit components straight out of
// this word.
func pairDigits(w uint64) uint64 {
	t := w & swarLowNibbles
	return t*10 + t>>8
}

// pow10i holds exact integer powers of ten: up to 10^8 for rescaling
// padded digit chunks, up to 10^15 for splicing a fast-path mantissa's
// integer and fraction segments (fastMantissaDigits bounds the need).
var pow10i = [16]uint64{
	1, 10, 100, 1000, 10000, 100000, 1000000, 10000000, 100000000,
	1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
}

// loadPadded returns the first min(len(b), 8) bytes of b in a
// little-endian word with the remaining high bytes set to ASCII '0'.
// When the slice's backing array extends to 8 bytes (the common case:
// fields are windows into the CSS buffer) the load is a single masked
// read — reads beyond len but within cap are legal Go and the CSS is
// read-only during the convert phase; only a field pressed against the
// very end of its backing array assembles the word byte by byte. Either
// way there is no memmove on the hot path.
func loadPadded(b []byte) uint64 {
	if len(b) >= 8 {
		return binary.LittleEndian.Uint64(b)
	}
	keep := uint64(1)<<(uint(len(b))*8) - 1
	if cap(b) >= 8 {
		return binary.LittleEndian.Uint64(b[:8])&keep | swarZeros64&^keep
	}
	var w uint64
	for i := len(b) - 1; i >= 0; i-- {
		w = w<<8 | uint64(b[i])
	}
	return w | swarZeros64&^keep
}

// alignLeft moves the n (< 8) leading bytes of a right-padded word to
// the high end and fills the vacated low bytes with ASCII '0',
// producing the "00…0digits" word whose parse8Digits value is the digit
// string's own — the padding becomes leading zeros instead of a
// trailing scale factor, so no division is ever needed to undo it.
func alignLeft(w uint64, n int) uint64 {
	sh := uint(8-n) * 8
	return w<<sh | swarZeros64>>(64-sh)
}

// digitsValue validates that b (at most 18 bytes) is all digits and
// returns its integer value in the same pass: per 8-byte window, one
// load, one exact flag test, and the three-multiply conversion.
func digitsValue(b []byte) (uint64, bool) {
	var v uint64
	for len(b) >= 8 {
		w := binary.LittleEndian.Uint64(b)
		if nonDigitFlags(w) != 0 {
			return 0, false
		}
		v = v*100000000 + parse8Digits(w)
		b = b[8:]
	}
	if len(b) > 0 {
		w := loadPadded(b)
		if nonDigitFlags(w) != 0 { // the '0' padding can never flag
			return 0, false
		}
		v = v*pow10i[len(b)] + parse8Digits(alignLeft(w, len(b)))
	}
	return v, true
}

// convertDigits converts an already-validated digit string of at most
// 15 digits to its integer value, eight digits per step.
func convertDigits(b []byte) uint64 {
	var v uint64
	for len(b) >= 8 {
		v = v*100000000 + parse8Digits(binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	if len(b) > 0 {
		v = v*pow10i[len(b)] + parse8Digits(alignLeft(loadPadded(b), len(b)))
	}
	return v
}

// fastIntDigits is the longest all-digit run the integer fast path
// converts itself: 18 digits can never overflow an int64, so the
// chunked conversion needs no per-digit overflow test. 19-digit fields
// sit on the MaxInt64 boundary and fall back to the scalar parser,
// which resolves the overflow exactly.
const fastIntDigits = 18

// minFastIntDigits gates the integer fast path from below: under one
// full SWAR window the scalar loop's handful of well-predicted per-byte
// iterations beats the word setup (load, flag test, alignment), so
// short fields go straight to it. The gate is a routing choice only —
// both paths return identical results.
const minFastIntDigits = 8

// fastMantissaDigits bounds the mantissa length (integer plus fraction
// digits, counting leading zeros) the float fast path converts itself.
// Up to 15 digits both the scalar parser's per-digit float accumulation
// and the chunked integer conversion are exact — every intermediate
// fits float64's 53-bit significand — so the two paths produce the same
// bits. Longer mantissas can round differently step-by-step and fall
// back to the scalar parser.
const fastMantissaDigits = 15

// fastExponentDigits bounds the explicit exponent length the float fast
// path accepts; longer exponents (including the scalar parser's >9999
// overflow check) fall back.
const fastExponentDigits = 3

// floatClassify is the general validate-then-convert float parser for
// the shapes the word paths decline — exponent forms and long
// mantissas. Stage 1 classifies the field eight bytes per test and
// records the dot and exponent positions; stage 2 converts the mantissa
// via digit chunks and applies the same scale10 the scalar parser uses,
// so accepted fields get bit-identical values. ok=false defers to the
// scalar path. body is the field with any leading sign stripped; neg
// carries that sign.
func floatClassify(body []byte, neg bool) (float64, bool) {
	n := len(body)

	// Stage 1: find every non-digit byte, eight bytes per test. The fast
	// shapes permit at most three, in order: one dot, one exponent
	// marker, one exponent sign immediately after it. Anything else —
	// a stray letter, two dots, a sign mid-field — defers to the scalar
	// parser, which produces the exact error.
	dot, exp := -1, -1
	for i := 0; i < n; {
		var flags uint64
		if i+8 <= n {
			flags = nonDigitFlags(binary.LittleEndian.Uint64(body[i:]))
		} else {
			flags = nonDigitFlags(loadPadded(body[i:]))
		}
		for flags != 0 {
			p := i + bits.TrailingZeros64(flags)>>3
			flags &= flags - 1
			if p >= n {
				break
			}
			switch c := body[p]; {
			case c == '.' && dot < 0 && exp < 0:
				dot = p
			case (c == 'e' || c == 'E') && exp < 0:
				exp = p
			case (c == '-' || c == '+') && exp >= 0 && p == exp+1:
				// exponent sign: consumed by the exponent conversion
			default:
				return 0, false
			}
		}
		i += 8
	}

	// Mantissa layout: the classifier only records a dot while no
	// exponent marker has been seen and positions arrive in order, so a
	// recorded dot always lies inside the mantissa.
	mantEnd := n
	if exp >= 0 {
		mantEnd = exp
	}
	intDigits := mantEnd
	fracDigits := 0
	if dot >= 0 {
		intDigits = dot
		fracDigits = mantEnd - dot - 1
	}
	digits := intDigits + fracDigits
	if digits == 0 || digits > fastMantissaDigits {
		return 0, false
	}

	// Stage 2: digit-chunk conversion. Both mantissa segments and the
	// exponent were validated above (every non-digit byte was accounted
	// for), so the conversions run unchecked.
	mant := convertDigits(body[:intDigits])
	if fracDigits > 0 {
		mant = mant*pow10i[fracDigits] + convertDigits(body[dot+1:mantEnd])
	}
	e := 0
	if exp >= 0 {
		es := body[exp+1:]
		eneg := false
		if len(es) > 0 && (es[0] == '-' || es[0] == '+') {
			eneg = es[0] == '-'
			es = es[1:]
		}
		if len(es) == 0 || len(es) > fastExponentDigits {
			return 0, false
		}
		e = int(convertDigits(es))
		if eneg {
			e = -e
		}
	}

	// float64(mant) is exact (≤ 15 digits); a scale beyond float64's
	// exact powers of ten defers to the scalar parser's slow path.
	e -= fracDigits
	if e < -maxExactPow10 || e > maxExactPow10 {
		return 0, false
	}
	v := scale10(float64(mant), e)
	if neg {
		v = -v
	}
	return v, true
}

// minFastFloatLen gates the float word paths from below, like
// minFastIntDigits: bodies under one SWAR window's worth of payoff are
// cheaper on the scalar loop's well-predicted per-byte iterations.
const minFastFloatLen = 7

// floatWord1 handles float bodies of 7..8 bytes ("1234.567") from a
// single loaded word: all digits → the aligned word converts directly;
// exactly one non-digit and it is a dot → the dot byte is spliced out
// of the word (bytes above it shift down one) and the remaining digits
// convert as one chunk — one three-multiply kernel for the whole
// mantissa. ok=false sends exponents and junk back to the caller.
func floatWord1(body []byte, n int) (float64, bool) {
	w := loadPadded(body)
	flags := nonDigitFlags(w) // '0' padding never flags
	if flags == 0 {
		return float64(parse8Digits(alignLeft(w, n))), true
	}
	if flags&(flags-1) == 0 && n > 1 {
		p := bits.TrailingZeros64(flags) >> 3
		if body[p] == '.' {
			lo := uint64(1)<<(uint(p)*8) - 1
			m := w&lo | (w>>8)&^lo // bytes above the dot shift down one
			v := float64(parse8Digits(alignLeft(m, n-1)))
			return scale10(v, -(n - 1 - p)), true
		}
	}
	return 0, false
}

// floatWord2 extends floatWord1 to bodies of 9..16 bytes — the NYC-taxi
// GPS-coordinate shape ("-73.987654") — with two loaded words. The
// segment straddling the dot (or the word boundary) joins from two
// aligned chunks; fractions longer than one word defer to the general
// classifier, as do over-long mantissas (16 all-digit bytes exceed
// float64's 15-digit exactness bound), exponents, and junk.
func floatWord2(body []byte, n int) (float64, bool) {
	w0 := binary.LittleEndian.Uint64(body)
	w1 := loadPadded(body[8:])
	f0, f1 := nonDigitFlags(w0), nonDigitFlags(w1)
	switch {
	case f0 == 0 && f1 == 0:
		if n > fastMantissaDigits {
			return 0, false
		}
		v := parse8Digits(w0)*pow10i[n-8] + parse8Digits(alignLeft(w1, n-8))
		return float64(v), true
	case f1 == 0 && f0&(f0-1) == 0:
		// Dot inside the first word: splicing it out shifts the whole
		// digit stream down one byte, so w1's low byte moves into w0's
		// top slot. A 9-byte body ("73.987654", the coordinate shape)
		// then has exactly 8 mantissa digits — one kernel call.
		p := bits.TrailingZeros64(f0) >> 3
		if body[p] != '.' {
			return 0, false
		}
		lo := uint64(1)<<(uint(p)*8) - 1
		m0 := w0&lo | (w0>>8)&^lo&^(uint64(0xFF)<<56) | w1<<56
		if n == 9 {
			return scale10(float64(parse8Digits(m0)), -(8 - p)), true
		}
		k := n - 9 // mantissa digits beyond the first chunk
		v := parse8Digits(m0)*pow10i[k] + parse8Digits(alignLeft(w1>>8, k))
		return scale10(float64(v), -(n - 1 - p)), true
	case f0 == 0 && f1&(f1-1) == 0:
		// Dot inside the second word: the integer part spans w0 and the
		// head of w1, the fraction sits in w1's tail.
		p8 := bits.TrailingZeros64(f1) >> 3
		frac := n - 9 - p8
		if body[8+p8] != '.' {
			return 0, false
		}
		intVal := parse8Digits(w0)*pow10i[p8] + parse8Digits(alignLeft(w1, p8))
		v := intVal*pow10i[frac] + parse8Digits(alignLeft(w1>>(uint(p8+1)*8), frac))
		return scale10(float64(v), -frac), true
	}
	return 0, false
}

// tsDateFlags / tsTimeFlags are the non-digit patterns a well-formed
// timestamp's two validated words must produce: "YYYY-MM-" flags bytes
// 4 and 7; "HH:MM:SS" flags bytes 2 and 5 (offsets within b[11:19]).
const (
	tsDateFlags = uint64(0x80)<<(4*8) | uint64(0x80)<<(7*8)
	tsTimeFlags = uint64(0x80)<<(2*8) | uint64(0x80)<<(5*8)
)

// dateFromWords converts an already-shape-checked "YYYY-MM-" word plus
// the two day digits into (year, month, day) using the pair-folding
// trick — no per-digit loop. ok=false means a range violation
// (month/day out of bounds) and defers to the scalar parser's exact
// error.
func dateFromWords(w uint64, d8, d9 byte) (y, m, d int, ok bool) {
	u := pairDigits(w)
	y = int(u&0xFF)*100 + int(u>>16&0xFF)
	m = int(u >> 40 & 0xFF)
	d = int(d8&0x0F)*10 + int(d9&0x0F)
	if m < 1 || m > 12 || d < 1 || d > daysInMonth[m] {
		return 0, 0, 0, false
	}
	return y, m, d, true
}

// dateWord is the validate-then-convert date parser: one word check
// validates "YYYY-MM-" (digits and dashes in one pass), the day digits
// are checked individually, and the components come out of the
// pair-folded word. ok=false defers to the scalar path, which resolves
// the exact error.
func dateWord(b []byte) (int64, bool) {
	if len(b) != 10 {
		return 0, false
	}
	w := binary.LittleEndian.Uint64(b)
	if nonDigitFlags(w) != tsDateFlags || b[4] != '-' || b[7] != '-' ||
		!isDigit(b[8]) || !isDigit(b[9]) {
		return 0, false
	}
	y, m, d, ok := dateFromWords(w, b[8], b[9])
	if !ok {
		return 0, false
	}
	return daysFromCivil(y, m, d), true
}

// timestampWord is the validate-then-convert timestamp parser for
// "YYYY-MM-DD HH:MM:SS[.ffffff]" (or a 'T' separator): two word checks
// validate the date and time sections, one padded word check validates
// the fraction, and every component is extracted with shift-and-mask
// arithmetic from the pair-folded words. Any shape or range violation
// (ok=false) defers to the scalar parser so the error values match byte
// for byte.
func timestampWord(b []byte) (int64, bool) {
	if len(b) < 19 || len(b) > 26 {
		return 0, false
	}
	wd := binary.LittleEndian.Uint64(b)
	wt := binary.LittleEndian.Uint64(b[11:])
	if nonDigitFlags(wd) != tsDateFlags || b[4] != '-' || b[7] != '-' ||
		!isDigit(b[8]) || !isDigit(b[9]) ||
		(b[10] != ' ' && b[10] != 'T') ||
		nonDigitFlags(wt) != tsTimeFlags || b[13] != ':' || b[16] != ':' {
		return 0, false
	}
	y, m, d, ok := dateFromWords(wd, b[8], b[9])
	if !ok {
		return 0, false
	}
	u := pairDigits(wt)
	h := int64(u & 0xFF)
	mi := int64(u >> 24 & 0xFF)
	s := int64(u >> 48 & 0xFF)
	if h > 23 || mi > 59 || s > 60 {
		return 0, false
	}
	micros := int64(0)
	if len(b) > 19 {
		if b[19] != '.' || len(b) == 20 {
			return 0, false
		}
		frac := b[20:]
		wf := loadPadded(frac) // 1..6 digits, right-padded with '0'
		if !allDigits8(wf) {
			return 0, false
		}
		// parse8Digits sees the fraction scaled to 8 digits; micros wants
		// it scaled to 6.
		micros = int64(parse8Digits(wf) / 100)
	}
	sec := daysFromCivil(y, m, d)*86400 + h*3600 + mi*60 + s
	return sec*1e6 + micros, true
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
