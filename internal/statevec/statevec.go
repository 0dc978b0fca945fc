// Package statevec implements state-transition vectors and their
// composite operation (§3.1, Figure 3), the mechanism that lets ParPaRaw
// determine every chunk's parsing context without a sequential pass.
//
// A chunk's state-transition vector v answers: "if the DFA had entered
// this chunk in state i, it would leave it in state v[i]". The composite
// a∘b chains two chunks: (a∘b)[i] = b[a[i]]. Composition is associative
// but not commutative, so an exclusive parallel scan (seeded with the
// identity vector) over all chunk vectors yields, for every chunk, the
// function from the input's true start state to that chunk's start state.
//
// The pipeline keeps each chunk's vector packed into one 64-bit Word and
// resolves start states with StartStates, which carries the single true
// start state through the chunks instead of scanning whole vectors. The
// composite itself has no runtime reader: Compose and the full
// composite scan live in the tests, as the reference StartStates and
// the DFA's chunk words are checked against.
package statevec

import (
	"fmt"
	"strings"

	"repro/internal/device"
)

// MaxStates bounds the number of DFA states a vector can hold: 16
// states × 4 bits fill the one uint64 of a Word, the packed vector the
// parse runs (the in-register packing of §4.5, Figure 8). It covers every
// format in the paper (the RFC 4180 DFA has 6 states).
const MaxStates = 16

// Vector is a state-transition vector: Vector[i] is the final state of
// the DFA instance that started in state i. The length is the DFA's state
// count |S|.
type Vector []uint8

// Identity returns the identity vector for states states: v[i] = i.
func Identity(states int) Vector {
	v := make(Vector, states)
	for i := range v {
		v[i] = uint8(i)
	}
	return v
}

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// Equal reports whether v and o hold the same transitions.
func (v Vector) Equal(o Vector) bool {
	if len(v) != len(o) {
		return false
	}
	for i := range v {
		if v[i] != o[i] {
			return false
		}
	}
	return true
}

// IsIdentity reports whether v maps every state to itself.
func (v Vector) IsIdentity() bool {
	for i := range v {
		if v[i] != uint8(i) {
			return false
		}
	}
	return true
}

// String renders the vector as e.g. "[0→2 1→2 2→2]".
func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, s := range v {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d→%d", i, s)
	}
	b.WriteByte(']')
	return b.String()
}

// Word is a state-transition vector packed into one 64-bit register,
// four bits per state (§4.5, Figure 8): lane i, bits 4i..4i+3, holds
// the state reached from start state i. MaxStates lanes fit exactly.
// Lanes at and above a machine's state count hold the identity. The
// parse kernel writes one Word per chunk.
type Word uint64

// identityWord maps every one of the MaxStates lanes to itself.
const identityWord Word = 0xFEDCBA9876543210

// Pack packs v, which must hold at most MaxStates states, into a Word.
func Pack(v Vector) Word {
	if len(v) > MaxStates {
		panic(fmt.Sprintf("statevec: %d states exceed the %d lanes of a Word", len(v), MaxStates))
	}
	w := identityWord &^ (Word(1)<<(4*uint(len(v))) - 1)
	for i, s := range v {
		w |= Word(s) << (4 * uint(i))
	}
	return w
}

// At returns lane s: the state reached from start state s.
func (w Word) At(s uint8) uint8 {
	return uint8(w>>(4*uint(s&15))) & 15
}

// TileChunks is the number of chunk words one StartStates tile covers.
const TileChunks = 2048

// StartStates resolves every chunk's start state for an input whose
// first chunk starts in state start: dst[c] is the state chunk c starts
// in, and the return value is the state the last chunk ends in (start
// for no chunks). words[c] is chunk c's packed transition vector and
// states the machine's state count.
//
// The full composite exclusive scan (§3.1) would give every chunk the
// map from every possible global start state to its own start state,
// but a parse only ever reads that map at one entry: the machine's
// start state. So the scan carries that one state through the chunks,
// in three steps over tiles of TileChunks words:
//
//  1. every tile composes its words into one aggregate word (a device
//     launch, one tile per block);
//  2. the launching goroutine walks the tile aggregates from start,
//     giving every tile its start state and the input its end state;
//  3. every tile walks its own chunks with one lane lookup per chunk
//     (a second launch) and writes dst.
//
// Both launches are attributed to phase. Nothing is shared between
// tiles inside a launch, so the scan needs no look-back, no lock and no
// per-combine memory; the tile aggregates and start states come from
// the arena. A single tile, or a single-worker device outside modelled
// time, runs step 3's walk over the whole input instead.
func StartStates(d *device.Device, a *device.Arena, phase string, states int, words []Word, start uint8, dst []uint8) uint8 {
	n := len(words)
	if len(dst) < n {
		panic("statevec: dst shorter than words")
	}
	if n == 0 {
		return start
	}
	tiles := (n + TileChunks - 1) / TileChunks
	if tiles == 1 || (d.Workers() == 1 && !d.ModelledTime()) {
		stop := d.Timers().Start(phase)
		defer stop()
		return walk(words, start, dst)
	}
	bs := d.Config().BlockSize
	aggregates := device.Alloc[Word](a, tiles)
	d.LaunchBlocks(phase, tiles*bs, func(t, _, _ int) {
		lo, hi := tileBounds(t, n)
		aggregates[t] = compose(words[lo:hi], states)
	})
	tileStart := device.Alloc[uint8](a, tiles)
	s := start
	for t, agg := range aggregates {
		tileStart[t] = s
		s = agg.At(s)
	}
	d.LaunchBlocks(phase, tiles*bs, func(t, _, _ int) {
		lo, hi := tileBounds(t, n)
		walk(words[lo:hi], tileStart[t], dst[lo:hi])
	})
	return s
}

// compose returns the composite w0∘w1∘… of words over the low states
// lanes (§3.1: lane i of a∘b is b's lane a[i]). It walks every lane
// through the words as a byte, so each word costs |S| independent lane
// lookups and no repacking.
func compose(words []Word, states int) Word {
	var buf [MaxStates]uint8
	lanes := buf[:states]
	for i := range lanes {
		lanes[i] = uint8(i)
	}
	for _, w := range words {
		for i, s := range lanes {
			lanes[i] = w.At(s)
		}
	}
	return Pack(lanes)
}

// walk writes the state each chunk starts in, beginning in state s, and
// returns the state after the last chunk.
func walk(words []Word, s uint8, dst []uint8) uint8 {
	dst = dst[:len(words)]
	for c, w := range words {
		dst[c] = s
		s = w.At(s)
	}
	return s
}

func tileBounds(t, n int) (lo, hi int) {
	lo = t * TileChunks
	return lo, min(lo+TileChunks, n)
}
