package dfa

import (
	"fmt"

	"repro/internal/statevec"
)

// Builder assembles a Machine. Typical use:
//
//	b := dfa.NewBuilder()
//	fld := b.State("FLD", dfa.Accepting(true))
//	…
//	nl := b.Group('\n')
//	b.On(nl, eor, eor, dfa.EmitRecordDelim|dfa.EmitControl)
//	m, err := b.Build(eor)
//
// Every (group, state) pair must have a transition; Build reports the
// missing ones. The catch-all group (symbols not matching any declared
// group) is addressed via b.CatchAll().
type Builder struct {
	states    []string
	accepting []bool
	midRecord []bool
	invalid   int
	kind      string
	symbols   []byte
	trans     map[int]map[int]State
	emit      map[int]map[int]Emission
}

// SetKind names the grammar family the machine under construction
// belongs to (Machine.Kind). The in-package grammar constructors set it;
// user-assembled machines default to "".
func (b *Builder) SetKind(kind string) { b.kind = kind }

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{
		invalid: -1,
		trans:   make(map[int]map[int]State),
		emit:    make(map[int]map[int]Emission),
	}
}

// StateOption configures a declared state.
type StateOption func(b *Builder, idx int)

// Accepting marks whether the input may validly end in this state.
func Accepting(ok bool) StateOption {
	return func(b *Builder, idx int) { b.accepting[idx] = ok }
}

// Invalid marks the state as the invalid sink (at most one).
func Invalid() StateOption {
	return func(b *Builder, idx int) { b.invalid = idx }
}

// MidRecord marks states in which the end of input implies an
// unterminated trailing record (e.g. inside an unquoted field). The core
// pipeline uses this to decide whether the input's last symbols form one
// more record beyond the delimiter count.
func MidRecord() StateOption {
	return func(b *Builder, idx int) { b.midRecord[idx] = true }
}

// State declares a state and returns its index. States are numbered in
// declaration order; the paper's presentation assumes si = i (§3.1).
func (b *Builder) State(name string, opts ...StateOption) State {
	idx := len(b.states)
	if idx >= statevec.MaxStates {
		panic(fmt.Sprintf("dfa: more than %d states", statevec.MaxStates))
	}
	b.states = append(b.states, name)
	b.accepting = append(b.accepting, false)
	b.midRecord = append(b.midRecord, false)
	for _, o := range opts {
		o(b, idx)
	}
	return State(idx)
}

// Group declares a symbol group matching exactly the byte sym and returns
// its group index. Groups are numbered in declaration order.
func (b *Builder) Group(sym byte) int {
	for _, s := range b.symbols {
		if s == sym {
			panic(fmt.Sprintf("dfa: symbol %q declared twice", sym))
		}
	}
	b.symbols = append(b.symbols, sym)
	return len(b.symbols) - 1
}

// CatchAll returns the index of the implicit catch-all group (every byte
// not matching a declared group). It is only valid after all Group calls.
func (b *Builder) CatchAll() int { return len(b.symbols) }

// On records that reading a symbol of group g in state from moves to
// state to with the given emission.
func (b *Builder) On(g int, from, to State, e Emission) {
	row, ok := b.trans[g]
	if !ok {
		row = make(map[int]State)
		b.trans[g] = row
		b.emit[g] = make(map[int]Emission)
	}
	if _, dup := row[int(from)]; dup {
		panic(fmt.Sprintf("dfa: duplicate transition (group %d, state %d)", g, from))
	}
	row[int(from)] = to
	b.emit[g][int(from)] = e
}

// OnAll records the same transition target and emission for group g from
// every declared state that does not already have one — convenient for
// sink states and comment loops.
func (b *Builder) OnAll(g int, to State, e Emission) {
	for s := range b.states {
		if row, ok := b.trans[g]; ok {
			if _, exists := row[s]; exists {
				continue
			}
		}
		b.On(g, State(s), to, e)
	}
}

// Build compiles the machine with the given start state. It verifies that
// every (group, state) pair has a transition and that the invalid state,
// if declared, is a sink.
func (b *Builder) Build(start State) (*Machine, error) {
	n := len(b.states)
	if n == 0 {
		return nil, fmt.Errorf("dfa: no states declared")
	}
	if int(start) >= n {
		return nil, fmt.Errorf("dfa: start state %d out of range", start)
	}
	groups := len(b.symbols) + 1
	m := &Machine{
		numStates:  n,
		start:      start,
		kind:       b.kind,
		stateNames: append([]string(nil), b.states...),
		accepting:  append([]bool(nil), b.accepting...),
		midRecord:  append([]bool(nil), b.midRecord...),
		symbols:    append([]byte(nil), b.symbols...),
		groups:     groups,
		trans:      make([]State, groups*n),
		emit:       make([]Emission, groups*n),
	}
	if b.invalid >= 0 {
		m.invalid = State(b.invalid)
		m.hasInvalid = true
	}
	for g := 0; g < groups; g++ {
		row := b.trans[g]
		for s := 0; s < n; s++ {
			to, ok := row[s]
			if !ok {
				return nil, fmt.Errorf("dfa: missing transition for group %d, state %q", g, b.states[s])
			}
			if int(to) >= n {
				return nil, fmt.Errorf("dfa: transition (group %d, state %q) targets unknown state %d", g, b.states[s], to)
			}
			m.trans[g*n+s] = to
			m.emit[g*n+s] = b.emit[g][s]
		}
	}
	if m.hasInvalid {
		for g := 0; g < groups; g++ {
			if m.trans[g*n+int(m.invalid)] != m.invalid {
				return nil, fmt.Errorf("dfa: invalid state %q is not a sink for group %d", b.states[m.invalid], g)
			}
		}
	}
	// Streaming-soundness metadata: record-delimiter transitions that
	// return to the start state are what let the stream be cut at record
	// boundaries and each partition parsed from Start (see
	// ResetsOnRecordDelim).
	m.resets = true
	for g := 0; g < groups; g++ {
		for s := 0; s < n; s++ {
			if m.emit[g*n+s].IsRecordDelim() && m.trans[g*n+s] != start {
				m.resets = false
			}
		}
	}
	// Dense byte->group table: the symbol groups, else the catch-all.
	catch := uint8(len(b.symbols))
	for i := range m.groupTab {
		m.groupTab[i] = catch
	}
	for g, sym := range b.symbols {
		m.groupTab[sym] = uint8(g)
	}
	// Fused byte-indexed fast path (fused.go), enabled by default.
	m.fusedOn, m.skipOn = true, true
	m.compileFast()
	return m, nil
}

// MustBuild is Build that panics on error, for machines constructed from
// static definitions.
func (b *Builder) MustBuild(start State) *Machine {
	m, err := b.Build(start)
	if err != nil {
		panic(err)
	}
	return m
}
