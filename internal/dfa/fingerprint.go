package dfa

import (
	"encoding/binary"
	"hash/fnv"
)

// Fingerprint returns a 64-bit content hash of the compiled machine:
// two machines with the same states, symbol groups, transitions,
// emissions, and fast-path configuration hash equal, regardless of
// which constructor call produced them. It is the format component of
// the plan-cache key — pointer identity would miss every cache hit for
// dialects compiled per request (FormatByName returns a fresh *Format
// each call), while this keys on what the machine actually does.
func (m *Machine) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	u64(uint64(m.numStates))
	u64(uint64(m.start))
	u64(uint64(len(m.kind)))
	h.Write([]byte(m.kind))
	for _, b := range m.accepting {
		if b {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	for _, b := range m.midRecord {
		if b {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	if m.hasInvalid {
		u64(uint64(m.invalid) + 1)
	} else {
		u64(0)
	}
	if m.resets {
		u64(1)
	} else {
		u64(0)
	}
	u64(uint64(len(m.symbols)))
	h.Write(m.symbols)
	u64(uint64(len(m.trans)))
	for _, s := range m.trans {
		u64(uint64(s))
	}
	for _, e := range m.emit {
		u64(uint64(e))
	}
	if m.fusedOn {
		u64(1)
	} else {
		u64(0)
	}
	if m.skipOn {
		u64(1)
	} else {
		u64(0)
	}
	return h.Sum64()
}
