// Package dfa implements the deterministic finite automata that encode
// ParPaRaw's parsing rules (§3.1). Unlike format-specific parsers, the
// algorithm simulates an arbitrary user-supplied DFA, which is what makes
// it applicable to CSVs with quoting and escaping, log formats with
// comments and directives, and similar delimiter-separated inputs.
//
// A Machine couples three tables indexed by (symbol group, state):
//
//   - the transition table (Table 1): the next state,
//   - the emission table: whether reading that symbol in that state
//     delimits a record, delimits a field, or is a control symbol that is
//     not part of any field value,
//   - the symbol-group mapping: a handful of interesting symbols (line
//     break, quote, delimiter, …) plus a catch-all group, compiled into a
//     256-entry byte → group table. The branchless SWAR matcher of §4.5
//     (device.SWARMatcher) computes the same mapping without a table; the
//     static experiment reproduces it, and the tests hold it to Group.
package dfa

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/statevec"
)

// State is a DFA state index.
type State = uint8

// Emission describes how the symbol just read must be interpreted, given
// the state it was read in. The three flags correspond to the three
// bitmap indexes of §3.1.
type Emission uint8

const (
	// EmitData marks a symbol that is part of a field's value. It is the
	// absence of Control (kept explicit for readable tables).
	EmitData Emission = 0
	// EmitRecordDelim marks a symbol that delimits a record.
	EmitRecordDelim Emission = 1 << iota
	// EmitFieldDelim marks a symbol that delimits a field (record
	// delimiters also end the current field but are tagged only with
	// EmitRecordDelim; offset computation treats them separately, §3.2).
	EmitFieldDelim
	// EmitControl marks a symbol that is not part of any field value
	// (delimiters, enclosing quotes, escape introducers, comment text).
	EmitControl
)

// IsRecordDelim reports whether the symbol delimits a record.
func (e Emission) IsRecordDelim() bool { return e&EmitRecordDelim != 0 }

// IsFieldDelim reports whether the symbol delimits a field.
func (e Emission) IsFieldDelim() bool { return e&EmitFieldDelim != 0 }

// IsControl reports whether the symbol is excluded from field values.
func (e Emission) IsControl() bool { return e&EmitControl != 0 }

// IsData reports whether the symbol belongs to a field's value.
func (e Emission) IsData() bool { return e&EmitControl == 0 }

func (e Emission) String() string {
	switch {
	case e.IsRecordDelim():
		return "record-delim"
	case e.IsFieldDelim():
		return "field-delim"
	case e.IsControl():
		return "control"
	default:
		return "data"
	}
}

// Machine is an immutable, compiled DFA. Machines are safe for concurrent
// use — simulation state lives entirely in the caller.
type Machine struct {
	numStates  int
	start      State
	kind       string
	stateNames []string
	accepting  []bool
	midRecord  []bool
	invalid    State // sink state entered on invalid transitions
	hasInvalid bool
	resets     bool // every record-delim transition targets the start state

	symbols []byte // group g < len(symbols) matches symbols[g]; last group is catch-all

	groups int     // len(symbols) + 1
	trans  []State // trans[g*numStates+s] = next state (row per group: Table 1 layout)
	emit   []Emission

	// Fused fast path (fused.go), compiled from the split tables above.
	groupTab [256]uint8           // byte -> group
	fused    []uint16             // fused[b*numStates+s] = next | emission<<8
	skip     []*device.RunScanner // per-state interesting-byte scanners
	pairSkip []*device.RunScanner // per-(emitting, other) state pair, [g*|S|+o]
	sink     []bool               // every byte maps the state to itself
	vecSkip  []*device.RunScanner // per-live-set scanners for the vector kernel
	fusedOn  bool
	skipOn   bool
}

// NumStates returns |S|.
func (m *Machine) NumStates() int { return m.numStates }

// NumGroups returns the number of symbol groups including the catch-all.
func (m *Machine) NumGroups() int { return m.groups }

// Start returns the machine's start state (the state a sequential parser
// would begin the whole input in).
func (m *Machine) Start() State { return m.start }

// Kind names the grammar family this machine was compiled from ("csv",
// "jsonl", "escaped", "weblog"), or "" for machines assembled directly
// through the Builder. Dialect-aware layers (header/schema inference,
// CLI format selection) dispatch on it; the parsing kernels never do —
// every machine runs through the same format-generic pipeline.
func (m *Machine) Kind() string { return m.kind }

// ResetsOnRecordDelim reports whether every record-delimiter-emitting
// transition targets the start state. This is the property that makes
// partition-at-a-time streaming sound: the carry-over contract cuts the
// stream at record boundaries and parses each partition from the start
// state, and the ring's quarantine recovery (RecordRemainder)
// additionally walks a partition from the start state. All machines
// built by this package's grammar constructors satisfy it; a
// Builder-assembled grammar that does not must be parsed whole, never
// streamed.
func (m *Machine) ResetsOnRecordDelim() bool { return m.resets }

// StateName returns the human-readable name of s.
func (m *Machine) StateName(s State) string {
	if int(s) < len(m.stateNames) {
		return m.stateNames[s]
	}
	return fmt.Sprintf("s%d", s)
}

// Accepting reports whether ending the input in s is valid.
func (m *Machine) Accepting(s State) bool { return m.accepting[s] }

// MidRecord reports whether ending the input in s leaves an unterminated
// trailing record.
func (m *Machine) MidRecord(s State) bool { return m.midRecord[s] }

// InvalidState returns the sink state for invalid transitions and whether
// the machine declares one.
func (m *Machine) InvalidState() (State, bool) { return m.invalid, m.hasInvalid }

// IsInvalid reports whether s is the invalid sink state.
func (m *Machine) IsInvalid(s State) bool { return m.hasInvalid && s == m.invalid }

// Symbols returns the lookup symbols; group i matches Symbols()[i] and
// the catch-all group index is len(Symbols()). The returned slice is the
// machine's own (machines are immutable, and this is called on per-
// partition paths that must not allocate) — callers must not modify it.
func (m *Machine) Symbols() []byte {
	return m.symbols
}

// Group maps a byte to its symbol group: one load from the 256-entry
// table Build fills.
func (m *Machine) Group(b byte) uint32 {
	return uint32(m.groupTab[b])
}

// Next returns the state reached from s on reading b.
func (m *Machine) Next(s State, b byte) State {
	if m.fusedOn {
		return State(m.fused[int(b)*m.numStates+int(s)] & 0xFF)
	}
	return m.trans[int(m.Group(b))*m.numStates+int(s)]
}

// NextByGroup returns the state reached from s on reading a symbol of
// group g — the coalesced row access of §4.5.
func (m *Machine) NextByGroup(s State, g uint32) State {
	return m.trans[int(g)*m.numStates+int(s)]
}

// Emission returns how a symbol of group g read in state s must be
// interpreted.
func (m *Machine) Emission(s State, g uint32) Emission {
	return m.emit[int(g)*m.numStates+int(s)]
}

// Row returns the transition-table row for group g: a slice of length
// NumStates mapping current state to next state. The returned slice
// aliases the machine's table and must not be modified.
func (m *Machine) Row(g uint32) []State {
	return m.trans[int(g)*m.numStates : (int(g)+1)*m.numStates]
}

// ChunkWord simulates one DFA instance per state over the chunk and
// returns the resulting state-transition vector (§3.1, Figure 3) packed
// into one statevec.Word: lane i holds the state reached from start
// state i after reading all of chunk. The |S| instances run over a
// stack array, through the fused or the split loop, and the result is
// packed once, so a chunk costs eight bytes of device memory and no
// allocation. It is the first parse kernel of the paper's two passes;
// ChunkWordEmit returns the same word from a walk that also emits.
func (m *Machine) ChunkWord(chunk []byte) statevec.Word {
	var v [statevec.MaxStates]uint8
	for i := range v {
		v[i] = uint8(i)
	}
	m.advanceVector(v[:m.numStates], chunk)
	return statevec.Pack(v[:m.numStates])
}

func (m *Machine) advanceVector(v statevec.Vector, chunk []byte) {
	if m.fusedOn {
		m.advanceVectorFused(v, chunk)
		return
	}
	for _, b := range chunk {
		row := m.Row(m.Group(b))
		for i := range v {
			v[i] = row[v[i]]
		}
	}
}

// Run simulates a single DFA instance from state s over input and returns
// the final state (the sequential reference path).
func (m *Machine) Run(s State, input []byte) State {
	if m.fusedOn {
		return m.runFused(s, input)
	}
	for _, b := range input {
		s = m.trans[int(m.Group(b))*m.numStates+int(s)]
	}
	return s
}

// Validate runs the machine sequentially over input from its start state
// and reports whether the input is well-formed: no invalid transition and
// an accepting end state (§4.3 "Validating format").
func (m *Machine) Validate(input []byte) error {
	s := m.Run(m.start, input)
	if m.IsInvalid(s) {
		return fmt.Errorf("dfa: input reaches invalid state %q", m.StateName(s))
	}
	if !m.Accepting(s) {
		return fmt.Errorf("dfa: input ends in non-accepting state %q", m.StateName(s))
	}
	return nil
}
