// Package bitmap provides the bit-per-symbol indexes ParPaRaw's tagging
// step produces (§3.1): one bitmap marking record-delimiting symbols, one
// marking field-delimiting symbols, and one marking control symbols that
// are not part of any field value. Subsequent steps (record/column offset
// computation, §3.2) operate on these bitmaps with population counts and
// bit manipulation instead of re-simulating the DFA.
package bitmap

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

const wordBits = 64

// Bitmap is a fixed-length bit vector. Distinct words may be written
// concurrently by different device threads; a word that straddles two
// threads' chunks must be written with StoreChunkWord, which merges such
// boundary words atomically.
type Bitmap struct {
	n     int
	words []uint64
}

// New returns a zeroed bitmap of n bits.
func New(n int) *Bitmap {
	if n < 0 {
		panic("bitmap: negative length")
	}
	return &Bitmap{n: n, words: make([]uint64, WordsFor(n))}
}

// WordsFor returns the number of backing words a bitmap of n bits needs.
func WordsFor(n int) int { return (n + wordBits - 1) / wordBits }

// FromWords returns a bitmap of n bits over the caller-provided (zeroed)
// backing words, so the words can come from recycled device memory. The
// slice must hold exactly WordsFor(n) words.
func FromWords(words []uint64, n int) *Bitmap {
	if n < 0 {
		panic("bitmap: negative length")
	}
	if len(words) != WordsFor(n) {
		panic(fmt.Sprintf("bitmap: %d backing words for %d bits, want %d", len(words), n, WordsFor(n)))
	}
	return &Bitmap{n: n, words: words}
}

// Len returns the number of bits.
func (b *Bitmap) Len() int { return b.n }

// Set sets bit i.
func (b *Bitmap) Set(i int) {
	b.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear clears bit i.
func (b *Bitmap) Clear(i int) {
	b.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Get reports bit i.
func (b *Bitmap) Get(i int) bool {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitmap: index %d out of range [0,%d)", i, b.n))
	}
	return b.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Word returns the w'th backing word (bits [w*64, w*64+64)). Callers
// iterating set bits word-at-a-time (the tag kernel's structural-byte
// walk) use it to avoid a range-scan call per set bit.
func (b *Bitmap) Word(w int) uint64 { return b.words[w] }

// PopCount returns the number of set bits in [0, Len()).
func (b *Bitmap) PopCount() int {
	total := 0
	for _, w := range b.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// PopCountRange returns the number of set bits in [lo, hi). It is the
// popc primitive §3.2 uses for per-chunk record counts.
func (b *Bitmap) PopCountRange(lo, hi int) int {
	if lo < 0 || hi > b.n || lo > hi {
		panic(fmt.Sprintf("bitmap: bad range [%d,%d) of %d", lo, hi, b.n))
	}
	if lo == hi {
		return 0
	}
	loWord, hiWord := lo/wordBits, (hi-1)/wordBits
	loMask := ^uint64(0) << (uint(lo) % wordBits)
	hiMask := ^uint64(0) >> (wordBits - 1 - uint(hi-1)%wordBits)
	if loWord == hiWord {
		return bits.OnesCount64(b.words[loWord] & loMask & hiMask)
	}
	total := bits.OnesCount64(b.words[loWord] & loMask)
	for w := loWord + 1; w < hiWord; w++ {
		total += bits.OnesCount64(b.words[w])
	}
	total += bits.OnesCount64(b.words[hiWord] & hiMask)
	return total
}

// LastSetInRange returns the index of the highest set bit in [lo, hi) and
// true, or 0 and false when the range has no set bit. §3.2 uses it to
// find the last record delimiter of a chunk, after which column counting
// restarts.
func (b *Bitmap) LastSetInRange(lo, hi int) (int, bool) { return b.last(lo, hi, 0) }

// LastClearInRange returns the index of the highest clear bit in [lo,
// hi) and true, or 0 and false when every bit of the range is set.
func (b *Bitmap) LastClearInRange(lo, hi int) (int, bool) { return b.last(lo, hi, ^uint64(0)) }

// FirstSetInRange returns the index of the lowest set bit in [lo, hi) and
// true, or 0 and false when the range has no set bit.
func (b *Bitmap) FirstSetInRange(lo, hi int) (int, bool) { return b.first(lo, hi, 0) }

// FirstClearInRange returns the index of the lowest clear bit in [lo,
// hi) and true, or 0 and false when every bit of the range is set.
func (b *Bitmap) FirstClearInRange(lo, hi int) (int, bool) { return b.first(lo, hi, ^uint64(0)) }

// last is LastSetInRange over the words XORed with flip.
func (b *Bitmap) last(lo, hi int, flip uint64) (int, bool) {
	if lo < 0 || hi > b.n || lo > hi {
		panic(fmt.Sprintf("bitmap: bad range [%d,%d) of %d", lo, hi, b.n))
	}
	if lo == hi {
		return 0, false
	}
	hiWord := (hi - 1) / wordBits
	loWord := lo / wordBits
	for w := hiWord; w >= loWord; w-- {
		word := b.words[w] ^ flip
		if w == hiWord {
			word &= ^uint64(0) >> (wordBits - 1 - uint(hi-1)%wordBits)
		}
		if w == loWord {
			word &= ^uint64(0) << (uint(lo) % wordBits)
		}
		if word != 0 {
			return w*wordBits + (wordBits - 1 - bits.LeadingZeros64(word)), true
		}
	}
	return 0, false
}

// first is FirstSetInRange over the words XORed with flip.
func (b *Bitmap) first(lo, hi int, flip uint64) (int, bool) {
	if lo < 0 || hi > b.n || lo > hi {
		panic(fmt.Sprintf("bitmap: bad range [%d,%d) of %d", lo, hi, b.n))
	}
	if lo == hi {
		return 0, false
	}
	w := lo / wordBits
	x := (b.words[w] ^ flip) &^ (1<<(uint(lo)%wordBits) - 1)
	for x == 0 {
		if w++; w*wordBits >= hi {
			return 0, false
		}
		x = b.words[w] ^ flip
	}
	if i := w*wordBits + bits.TrailingZeros64(x); i < hi {
		return i, true
	}
	return 0, false
}

// SetOwned sets bit i for a writer that owns bits [lo, hi), the rule of
// StoreChunkWord: a plain OR when the whole word is the writer's (every
// bit in [lo, hi) or past Len()), an atomic OR when a neighbouring
// writer may set other bits of the word concurrently.
func (b *Bitmap) SetOwned(i, lo, hi int) {
	w := i / wordBits
	bit := uint64(1) << (uint(i) % wordBits)
	if first := w * wordBits; first < lo || (first+wordBits > hi && hi < b.n) {
		atomic.OrUint64(&b.words[w], bit)
		return
	}
	b.words[w] |= bit
}

// StoreChunkWord writes x, the bits a chunk covering symbols [lo, hi)
// sets in backing word w, into the bitmap. A word the chunk owns
// outright — every one of its bits lies in [lo, hi) or past Len() — is
// stored plainly. A word shared with a neighbouring chunk (64w < lo, or
// 64w+64 > hi with hi < Len()) is merged with an atomic OR: neighbours
// set disjoint bits of it concurrently. A chunk thus takes at most two
// atomics, and none when its bounds are multiples of 64.
func (b *Bitmap) StoreChunkWord(w, lo, hi int, x uint64) {
	first := w * wordBits
	if first < lo || (first+wordBits > hi && hi < b.n) {
		if x != 0 {
			atomic.OrUint64(&b.words[w], x)
		}
		return
	}
	b.words[w] = x
}

// ClearChunk clears bits [lo, hi), the bits of a chunk covering those
// symbols, under the ownership rule of StoreChunkWord: a word the chunk
// owns is stored zero, and a word it shares with a neighbour loses only
// the chunk's bits through an atomic AND, so the neighbour may store or
// clear its own bits of the word concurrently. A chunk emitted again
// after a wrong guess clears its range first, then stores its words.
func (b *Bitmap) ClearChunk(lo, hi int) {
	if lo >= hi {
		return
	}
	for w := lo / wordBits; w <= (hi-1)/wordBits; w++ {
		first := w * wordBits
		if first < lo || (first+wordBits > hi && hi < b.n) {
			mask := ^uint64(0)
			if first < lo {
				mask <<= uint(lo - first)
			}
			if first+wordBits > hi {
				mask &= ^uint64(0) >> uint(first+wordBits-hi)
			}
			atomic.AndUint64(&b.words[w], ^mask)
			continue
		}
		b.words[w] = 0
	}
}
