// fused.go compiles the fused byte-indexed fast path of a Machine.
//
// The split tables of §3.1/§4.5 resolve every input byte with two or
// three dependent steps: byte → symbol group (a 256-entry table), then (group, state) → next state and (group, state) → emission. The
// paper fuses nothing because its GPU trades table size for register
// pressure (§4.5); on a CPU the opposite trade wins, so Build pre-fuses
// the composition into byte-indexed tables and every parse kernel does
// exactly one load per byte:
//
//   - fused[b*|S|+s] packs (next state, emission) into one uint16; the
//     slice doubles as the multi-DFA vector kernel's per-byte row
//     (fused[b*|S| : b*|S|+|S|]), read without group resolution;
//   - skip[s] scans for the next *interesting* byte — one whose
//     transition from s is not a data-emitting self-loop — eight bytes
//     per step, for states whose catch-all transition is such a no-op
//     (inside quoted or unquoted field data);
//   - vecSkip[live] is the multi-DFA analogue keyed by the set of
//     states live in a transition vector (transitions only; the vector
//     kernel emits nothing);
//   - pairSkip[g*|S|+o] serves the one-walk parse (emit.go): the next
//     byte that is interesting to an emitting state g or moves a second
//     state o.
//
// SetFastPath restores the split per-byte path for ablation and parity
// testing.

package dfa

import "repro/internal/device"

// compileFast builds the fused tables, the packed rows, and the
// skip-ahead scanners from the split tables and groupTab. Build calls
// it; the results are immutable afterwards.
func (m *Machine) compileFast() {
	ns := m.numStates
	m.fused = make([]uint16, 256*ns)
	for b := 0; b < 256; b++ {
		g := int(m.groupTab[b])
		for s := 0; s < ns; s++ {
			m.fused[b*ns+s] = uint16(m.trans[g*ns+s]) | uint16(m.emit[g*ns+s])<<8
		}
	}
	m.compileSkip()
}

// boringFor reports whether reading a symbol of group g in state s is a
// no-op for the emission kernels: the state self-loops and the symbol is
// plain field data (no bitmap bit to set, no metadata to update).
func (m *Machine) boringFor(s int, g int) bool {
	return m.trans[g*m.numStates+s] == State(s) && m.emit[g*m.numStates+s] == EmitData
}

// compileSkip derives the per-state and per-live-set skip scanners. A
// state is skippable when its catch-all transition is boring: then the
// interesting bytes are a subset of the declared symbols, small enough
// for the SWAR run scanner.
func (m *Machine) compileSkip() {
	ns := m.numStates
	catch := len(m.symbols)
	m.skip = make([]*device.RunScanner, ns)
	for s := 0; s < ns; s++ {
		if !m.boringFor(s, catch) {
			continue
		}
		var interesting []byte
		for g, sym := range m.symbols {
			if !m.boringFor(s, g) {
				interesting = append(interesting, sym)
			}
		}
		m.skip[s] = device.NewRunScanner(interesting)
	}

	// The speculative walk (emit.go) steps an emitting lane g with a
	// second, transition-only lane o. A byte is skippable for the pair
	// when it is boring to g and a self-loop for o, so the pair needs g
	// skippable and o's catch-all a self-loop. On the diagonal (o == g)
	// and for a sink o, which no byte moves, that is g's own set.
	m.sink = make([]bool, ns)
	for s := 0; s < ns; s++ {
		m.sink[s] = true
		for g := 0; g <= catch; g++ {
			if m.trans[g*ns+s] != State(s) {
				m.sink[s] = false
			}
		}
	}
	m.pairSkip = make([]*device.RunScanner, ns*ns)
	for g := 0; g < ns; g++ {
		if m.skip[g] == nil {
			continue
		}
		for o := 0; o < ns; o++ {
			if m.trans[catch*ns+o] != State(o) {
				continue
			}
			var interesting []byte
			for grp, sym := range m.symbols {
				if !m.boringFor(g, grp) || m.trans[grp*ns+o] != State(o) {
					interesting = append(interesting, sym)
				}
			}
			m.pairSkip[g*ns+o] = device.NewRunScanner(interesting)
		}
	}

	// The vector kernel tracks |S| instances at once, so a byte is
	// skippable only if it moves none of the states still live in the
	// vector — and only transitions matter (the multi-DFA pass emits
	// nothing, §3.1). Precompute one scanner per possible live set; the
	// 2^|S| table is only affordable for small machines, which every
	// format in the paper is.
	if ns > maxVecSkipStates {
		m.vecSkip = nil
		return
	}
	selfLoop := func(s, g int) bool { return m.trans[g*ns+s] == State(s) }
	m.vecSkip = make([]*device.RunScanner, 1<<uint(ns))
	for live := 1; live < 1<<uint(ns); live++ {
		ok := true
		var interesting []byte
		for s := 0; s < ns && ok; s++ {
			if live&(1<<uint(s)) == 0 {
				continue
			}
			if !selfLoop(s, catch) {
				ok = false
				break
			}
			for g, sym := range m.symbols {
				if !selfLoop(s, g) {
					interesting = append(interesting, sym)
				}
			}
		}
		if ok {
			m.vecSkip[live] = device.NewRunScanner(interesting)
		}
	}
}

// maxVecSkipStates bounds the 2^|S| live-set scanner table.
const maxVecSkipStates = 8

// SetFastPath returns a machine with the fused tables and/or the
// skip-ahead scan enabled or disabled. Both default to enabled;
// disabling them forces the original split per-byte path (the
// fused-vs-split and skipahead-on/off ablation axes). Skip-ahead
// requires the fused path: with fused disabled, skipAhead is ignored.
func (m *Machine) SetFastPath(fused, skipAhead bool) *Machine {
	if m.fusedOn == fused && m.skipOn == skipAhead {
		return m
	}
	c := *m
	c.fusedOn = fused
	c.skipOn = skipAhead
	return &c
}

// Fused reports whether the fused byte-indexed tables are enabled.
func (m *Machine) Fused() bool { return m.fusedOn }

// SkipAhead reports whether the interesting-byte skip-ahead is enabled.
func (m *Machine) SkipAhead() bool { return m.fusedOn && m.skipOn }

// Step returns the state reached and the emission produced by reading b
// in state s — the fused fast path: one table load.
// It is valid (and identical to Group/NextByGroup/Emission composition)
// regardless of the fast-path toggles.
func (m *Machine) Step(s State, b byte) (State, Emission) {
	e := m.fused[int(b)*m.numStates+int(s)]
	return State(e & 0xFF), Emission(e >> 8)
}

// SkipScanners returns the per-state interesting-byte scanners, indexed
// by state, or nil when the skip-ahead fast path is disabled. A nil
// entry means the state is not skippable (its catch-all transition does
// work). Kernels holding the current state s skip to
// scanners[s].Next(input, i, hi) — every byte in between is a
// data-emitting self-loop requiring no bitmap write and no state change.
func (m *Machine) SkipScanners() []*device.RunScanner {
	if !m.fusedOn || !m.skipOn {
		return nil
	}
	return m.skip
}

// advanceVectorFused is the multi-DFA transition loop over the fused
// tables: one row-slice load per byte with no group resolution, and —
// when the set of live states allows — bulk skipping to the next byte
// that moves any live state. The live set is recomputed only after a
// byte actually ran transitions, so long boring runs cost one scan each.
func (m *Machine) advanceVectorFused(v []uint8, chunk []byte) {
	i, n := 0, len(chunk)
	ns := m.numStates
	useSkip := m.skipOn && m.vecSkip != nil
	for i < n {
		if useSkip {
			var live uint32
			for _, s := range v {
				live |= 1 << (s & 7)
			}
			if sc := m.vecSkip[live]; sc != nil {
				i = sc.Next(chunk, i, n)
				if i >= n {
					return
				}
			}
		}
		b := int(chunk[i])
		row := m.fused[b*ns : b*ns+ns]
		for k := range v {
			v[k] = uint8(row[v[k]])
		}
		i++
	}
}

// RecordRemainder walks input once from the start state and returns the
// number of trailing bytes after the last record-delimiter emission —
// exactly the carry-over the pipeline's TrailingRemainder mode reports
// (emitBitmapsStage: remainder = n - last - 1, or n with no delimiter).
// The streaming ring calls it only to recover the carry of a partition
// whose parse failed before publishing its boundary and is quarantined;
// every other carry comes from the parse itself. The walk uses the
// fused tables and skip scanners unconditionally (both are always
// compiled; skippable states only self-loop over data bytes, which
// never delimit a record), so the result matches the full parse byte
// for byte regardless of the ablation toggles, at one table load per
// interesting byte.
func (m *Machine) RecordRemainder(input []byte) int {
	ns := m.numStates
	s := m.start
	last := -1
	i, n := 0, len(input)
	for i < n {
		if sc := m.skip[s]; sc != nil {
			i = sc.Next(input, i, n)
			if i >= n {
				break
			}
		}
		e := m.fused[int(input[i])*ns+int(s)]
		s = State(e & 0xFF)
		if Emission(e >> 8).IsRecordDelim() {
			last = i
		}
		i++
	}
	return n - last - 1
}

// runFused is the sequential single-instance simulation over the fused
// tables with skip-ahead.
func (m *Machine) runFused(s State, input []byte) State {
	skip := m.SkipScanners()
	ns := m.numStates
	i, n := 0, len(input)
	for i < n {
		if skip != nil {
			if sc := skip[s]; sc != nil {
				i = sc.Next(input, i, n)
				if i >= n {
					return s
				}
			}
		}
		s = State(m.fused[int(input[i])*ns+int(s)] & 0xFF)
		i++
	}
	return s
}
