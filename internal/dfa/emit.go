// emit.go holds the parse's emitting walks (§3.1-3.2): Emit, the single
// DFA instance of the second parse kernel, and ChunkWordEmit, which walks
// a chunk once for both parse kernels — the chunk's transition vector
// and the emission of one guessed lane in the same pass.

package dfa

import (
	"repro/internal/bitmap"
	"repro/internal/device"
	"repro/internal/offsets"
	"repro/internal/statevec"
)

// Bitmaps are the three bit-per-symbol indexes of §3.1 an emit walk
// writes.
type Bitmaps struct {
	Record  *bitmap.Bitmap // symbol delimits a record
	Field   *bitmap.Bitmap // symbol delimits a field
	Control *bitmap.Bitmap // symbol is not part of any field value
}

// storeChunkWords writes backing word w of all three bitmaps for the
// chunk covering symbols [lo, hi).
func (b *Bitmaps) storeChunkWords(w, lo, hi int, rec, fld, ctl uint64) {
	b.Record.StoreChunkWord(w, lo, hi, rec)
	b.Field.StoreChunkWord(w, lo, hi, fld)
	b.Control.StoreChunkWord(w, lo, hi, ctl)
}

// ClearChunk clears the bits of symbols [lo, hi) in all three bitmaps,
// so a chunk can be emitted again over a walk that guessed its start
// state wrong (Bitmap.ClearChunk).
func (b *Bitmaps) ClearChunk(lo, hi int) {
	b.Record.ClearChunk(lo, hi)
	b.Field.ClearChunk(lo, hi)
	b.Control.ClearChunk(lo, hi)
}

// ChunkEmit is what an emit walk counts in its chunk besides the bitmap
// bits: the record count and column offset of §3.2 and the column-count
// metadata of §4.3. The paper derives them from the bitmaps with popc;
// counting them during the walk is arithmetically identical and saves a
// pass.
type ChunkEmit struct {
	// Records is the number of record delimiters.
	Records int64
	// Fields is the number of field delimiters after the last record
	// delimiter, or in the whole chunk when it has none: the chunk's
	// absolute or relative column offset.
	Fields int
	// Leading is the number of field delimiters before the first record
	// delimiter (meaningful when SawRecord).
	Leading int
	// SawRecord reports that the chunk holds a record delimiter.
	SawRecord bool
	// Columns holds the column counts of the records wholly inside the
	// chunk.
	Columns offsets.MinMax
}

// emitter is an emit walk's output in progress: the bitmap bits of the
// backing word under the cursor, held until the cursor sets a bit in a
// later word (each word is written once, through
// Bitmap.StoreChunkWord), and the chunk's counts.
type emitter struct {
	bm            *Bitmaps
	lo, hi        int
	w             int
	rec, fld, ctl uint64
	out           ChunkEmit
}

func newEmitter(bm *Bitmaps, lo, hi int) emitter {
	return emitter{bm: bm, lo: lo, hi: hi, w: lo >> 6}
}

// symbol records a non-data emission at symbol i. The hot loop of
// walkPair inlines the same steps; this copy serves the short lock-step
// prefix of ChunkWordEmit.
func (e *emitter) symbol(i int, em Emission) {
	if i>>6 != e.w {
		if e.ctl != 0 {
			e.bm.storeChunkWords(e.w, e.lo, e.hi, e.rec, e.fld, e.ctl)
		}
		e.w, e.rec, e.fld, e.ctl = i>>6, 0, 0, 0
	}
	bit := uint64(1) << (i & 63)
	e.ctl |= bit
	switch {
	case em.IsRecordDelim():
		e.rec |= bit
		e.out.Records++
		if !e.out.SawRecord {
			e.out.SawRecord = true
			e.out.Leading = e.out.Fields
		} else {
			e.out.Columns.Observe(e.out.Fields + 1)
		}
		e.out.Fields = 0
	case em.IsFieldDelim():
		e.fld |= bit
		e.out.Fields++
	}
}

// finish writes the last backing word and returns the counts.
func (e *emitter) finish() ChunkEmit {
	if e.ctl != 0 {
		e.bm.storeChunkWords(e.w, e.lo, e.hi, e.rec, e.fld, e.ctl)
	}
	return e.out
}

// Emit walks the chunk input[lo:hi] with one DFA instance from state s,
// sets the chunk's record, field and control bits in bm and returns the
// state it ends in and the chunk's counts: the second parse kernel
// (§3.1-3.2). On the fused fast path each byte costs one table load, and
// the skip-ahead scanners jump over runs of data-emitting self-loops
// (field text), inside which no bit is set and no count changes. Bits
// are written with Bitmap.StoreChunkWord, so neighbouring chunks may
// emit concurrently; words with no bit set are not written at all.
func (m *Machine) Emit(input []byte, lo, hi int, s State, bm *Bitmaps) (State, ChunkEmit) {
	e := newEmitter(bm, lo, hi)
	s, _ = m.walkPair(&e, input, lo, s, s)
	return s, e.finish()
}

// ChunkWordEmit walks the chunk input[lo:hi] once and returns the same
// packed transition vector as ChunkWord, while setting the bits in bm
// and returning the counts that Emit would from start state guess. The
// lanes of all |S| start states run in three stages:
//
//  1. the lanes step together, one table load per distinct state per
//     byte: lanes that reach the same state merge, and a lane that
//     reaches a sink (a state every byte maps to itself, such as INV)
//     drops out, until at most one live lane besides the guessed one is
//     left;
//  2. the guessed lane and that other lane step as a pair, skipping
//     bytes that are boring to the guessed lane and leave the other
//     where it is (a scanner per pair of states), until they merge or
//     the other reaches a sink;
//  3. the guessed lane runs alone with its own skip scanner, as Emit.
//
// Lanes converge within about a hundred bytes on the paper's formats, so
// a chunk costs little more than one Emit. Stage 1 reads the fused
// tables whatever the fast-path toggles; stages 2 and 3 follow them, as
// Emit does. The caller checks the guess against the chunk's true start
// state and emits the chunk again when it was wrong.
func (m *Machine) ChunkWordEmit(input []byte, lo, hi int, guess State, bm *Bitmaps) (statevec.Word, ChunkEmit) {
	ns := m.numStates
	// Distinct lanes live in slots: slot 0 holds the guessed lane, and
	// lane s ends in the state of slot[s] when the walk ends.
	var state [statevec.MaxStates]State
	var slot [statevec.MaxStates]uint8
	var live [statevec.MaxStates]uint8 // live slots other than 0
	nlive := 0
	state[0] = guess
	for s := 0; s < ns; s++ {
		if State(s) == guess {
			continue
		}
		k := uint8(s + 1)
		if State(s) > guess {
			k = uint8(s)
		}
		slot[s] = k
		state[k] = State(s)
		if !m.sink[s] {
			live[nlive] = k
			nlive++
		}
	}

	e := newEmitter(bm, lo, hi)
	i := lo
	for ; i < hi && nlive > 1; i++ {
		row := m.fused[int(input[i])*ns : int(input[i])*ns+ns]
		x := row[state[0]]
		state[0] = State(x)
		if em := Emission(x >> 8); em != EmitData {
			e.symbol(i, em)
		}
		seen := uint32(1) << state[0]
		merged := false
		for _, k := range live[:nlive] {
			s := State(row[state[k]])
			state[k] = s
			if seen&(1<<s) != 0 || m.sink[s] {
				merged = true
			}
			seen |= 1 << s
		}
		if merged {
			nlive = m.mergeLanes(&state, &slot, &live, nlive)
		}
	}

	other := uint8(0)
	if nlive == 1 {
		other = live[0]
	}
	state[0], state[other] = m.walkPair(&e, input, i, state[0], state[other])

	var v [statevec.MaxStates]uint8
	for s := 0; s < ns; s++ {
		v[s] = state[slot[s]]
	}
	return statevec.Pack(v[:ns]), e.finish()
}

// mergeLanes folds the live slots that reached the state of slot 0 or
// of an earlier live slot into that slot, drops the slots that reached
// a sink, and returns the new live count.
func (m *Machine) mergeLanes(state *[statevec.MaxStates]State, slot, live *[statevec.MaxStates]uint8, nlive int) int {
	var owner [statevec.MaxStates]uint8 // state -> slot + 1 holding it
	owner[state[0]] = 1
	n := 0
	for _, k := range live[:nlive] {
		s := state[k]
		if o := owner[s]; o != 0 {
			for lane := range slot[:m.numStates] {
				if slot[lane] == k {
					slot[lane] = o - 1
				}
			}
			continue
		}
		owner[s] = k + 1
		if !m.sink[s] {
			live[n] = k
			n++
		}
	}
	return n
}

// walkPair walks input[i:e.hi] with the guessed lane g, whose emission
// e records, and one other lane o (o == g for a single lane), and
// returns both end states. Every byte steps both lanes; when skip-ahead
// is on, the pair scanner of (g, o) jumps over the bytes that are
// boring to g and leave o where it is. After a merge (o == g) that is
// g's own scanner, and after o reached a sink, which no byte moves, the
// pair scanner skips exactly what g's does, so the pair walk becomes
// the single-lane walk without a change of loop. The emission steps of
// emitter.symbol are inlined.
func (m *Machine) walkPair(e *emitter, input []byte, i int, g, o State) (State, State) {
	ns := m.numStates
	fused := m.fusedOn
	var skip []*device.RunScanner
	if m.fusedOn && m.skipOn {
		skip = m.pairSkip
	}
	lo, hi := e.lo, e.hi
	w, rec, fld, ctl := e.w, e.rec, e.fld, e.ctl
	out := e.out
	for i < hi {
		if skip != nil {
			if sc := skip[int(g)*ns+int(o)]; sc != nil {
				i = sc.Next(input, i, hi)
				if i >= hi {
					break
				}
			}
		}
		b := int(input[i])
		var em Emission
		if fused {
			x := m.fused[b*ns+int(g)]
			if o == g {
				o = State(x)
			} else {
				o = State(m.fused[b*ns+int(o)])
			}
			g, em = State(x), Emission(x>>8)
		} else {
			grp := int(m.groupTab[b]) * ns
			next := m.trans[grp+int(g)]
			if o == g {
				o = next
			} else {
				o = m.trans[grp+int(o)]
			}
			g, em = next, m.emit[grp+int(g)]
		}
		if em != EmitData {
			if i>>6 != w {
				if ctl != 0 {
					e.bm.storeChunkWords(w, lo, hi, rec, fld, ctl)
				}
				w, rec, fld, ctl = i>>6, 0, 0, 0
			}
			bit := uint64(1) << (i & 63)
			ctl |= bit
			switch {
			case em.IsRecordDelim():
				rec |= bit
				out.Records++
				if !out.SawRecord {
					out.SawRecord = true
					out.Leading = out.Fields
				} else {
					out.Columns.Observe(out.Fields + 1)
				}
				out.Fields = 0
			case em.IsFieldDelim():
				fld |= bit
				out.Fields++
			}
		}
		i++
	}
	e.w, e.rec, e.fld, e.ctl = w, rec, fld, ctl
	e.out = out
	return g, o
}
