// Package scan provides parallel prefix scans, the fundamental building
// block of ParPaRaw (§2). The composite scan over state-transition
// vectors, the record/column offset scans, the radix-sort histogram scan
// and the CSS index generation all reduce to an (in/ex)clusive scan under
// an associative — not necessarily commutative — binary operator.
//
// Two parallel implementations are provided:
//
//   - Blocked: the classic two-pass scan (per-block reduce, scan of block
//     aggregates, per-block downsweep).
//   - SinglePass: the single-pass "decoupled look-back" scan of Merrill &
//     Garland (2016), which the paper builds on. Each block publishes its
//     aggregate, then resolves its exclusive prefix by inspecting
//     predecessor descriptors, falling back from inclusive-prefix to
//     aggregate states — one read pass over the data instead of two.
//
// Both preserve operator associativity requirements only (no
// commutativity), matching §2's requirement so the non-commutative
// state-vector composite works.
package scan

import (
	"sync"
	"sync/atomic"

	"repro/internal/device"
)

// Op is an associative binary operator with an identity element.
type Op[T any] struct {
	// Identity is the neutral element: Combine(Identity, x) == x ==
	// Combine(x, Identity).
	Identity T
	// Combine applies the operator. It must be associative; it need not
	// be commutative.
	Combine func(a, b T) T
}

// Sum returns the addition operator for any integer-like type.
func Sum[T int | int32 | int64 | uint32 | uint64]() Op[T] {
	return Op[T]{Identity: 0, Combine: func(a, b T) T { return a + b }}
}

// Max returns the max operator (identity must be provided as the minimum
// representable value by the caller for full generality; this helper uses
// the zero value, suitable for non-negative domains).
func Max[T int | int32 | int64 | uint32 | uint64]() Op[T] {
	return Op[T]{Identity: 0, Combine: func(a, b T) T {
		if a > b {
			return a
		}
		return b
	}}
}

// Sequential computes the scan of src into dst (which may alias src).
// When inclusive is true dst[i] = x0 ⊕ … ⊕ xi, otherwise
// dst[i] = identity ⊕ x0 ⊕ … ⊕ x(i-1). It returns the total reduction of
// all elements. This is the reference implementation the parallel scans
// are tested against.
func Sequential[T any](op Op[T], src, dst []T, inclusive bool) T {
	if len(dst) < len(src) {
		panic("scan: dst shorter than src")
	}
	acc := op.Identity
	for i, x := range src {
		if inclusive {
			acc = op.Combine(acc, x)
			dst[i] = acc
		} else {
			dst[i] = acc
			acc = op.Combine(acc, x)
		}
	}
	return acc
}

// Exclusive computes a parallel exclusive scan on the device, returning
// the total reduction (the inclusive prefix of the last element).
func Exclusive[T any](d *device.Device, phase string, op Op[T], src, dst []T) T {
	return singlePass(d, nil, phase, op, src, dst, false)
}

// ExclusiveArena is Exclusive with the scan's internal temporaries (tile
// descriptors) drawn from the device arena instead of the Go heap.
func ExclusiveArena[T any](d *device.Device, a *device.Arena, phase string, op Op[T], src, dst []T) T {
	return singlePass(d, a, phase, op, src, dst, false)
}

// tileSize is the number of elements each scan block processes. It is
// deliberately independent of the device block size: scan tiles trade
// descriptor traffic against load balance.
const tileSize = 2048

// Blocked computes a parallel scan using the classic two-pass approach:
// (1) every tile reduces its elements, (2) the tile aggregates are scanned
// sequentially (they are few), (3) every tile re-reads its input and
// writes prefixed outputs. dst may alias src. Returns the total.
func Blocked[T any](d *device.Device, phase string, op Op[T], src, dst []T, inclusive bool) T {
	return blocked(d, nil, phase, op, src, dst, inclusive)
}

func blocked[T any](d *device.Device, a *device.Arena, phase string, op Op[T], src, dst []T, inclusive bool) T {
	n := len(src)
	if len(dst) < n {
		panic("scan: dst shorter than src")
	}
	if n == 0 {
		return op.Identity
	}
	tiles := (n + tileSize - 1) / tileSize
	if tiles == 1 || (d.Workers() == 1 && !d.ModelledTime()) {
		stop := d.Timers().Start(phase)
		defer stop()
		return Sequential(op, src, dst, inclusive)
	}
	// One tile per device *block*, as on the GPU, where a thread-block
	// cooperatively processes one tile: this is the granularity the
	// modelled-time scheduler attributes costs at.
	bs := d.Config().BlockSize
	aggregates := device.Alloc[T](a, tiles)
	d.LaunchBlocks(phase, tiles*bs, func(t, _, _ int) {
		lo, hi := tileBounds(t, n)
		acc := op.Identity
		for i := lo; i < hi; i++ {
			acc = op.Combine(acc, src[i])
		}
		aggregates[t] = acc
	})
	prefixes := device.Alloc[T](a, tiles)
	total := Sequential(op, aggregates, prefixes, false)
	d.LaunchBlocks(phase, tiles*bs, func(t, _, _ int) {
		lo, hi := tileBounds(t, n)
		acc := prefixes[t]
		for i := lo; i < hi; i++ {
			if inclusive {
				acc = op.Combine(acc, src[i])
				dst[i] = acc
			} else {
				x := src[i]
				dst[i] = acc
				acc = op.Combine(acc, x)
			}
		}
	})
	return total
}

// Descriptor states for the decoupled look-back, after Merrill & Garland.
const (
	statusInvalid   int32 = iota // no value published yet
	statusAggregate              // tile-local aggregate available
	statusPrefix                 // inclusive prefix (all preceding tiles folded in) available
)

type tileDescriptor[T any] struct {
	mu        sync.Mutex
	status    atomic.Int32
	aggregate T
	prefix    T
}

func (td *tileDescriptor[T]) publishAggregate(v T) {
	td.mu.Lock()
	td.aggregate = v
	td.mu.Unlock()
	td.status.Store(statusAggregate)
}

func (td *tileDescriptor[T]) publishPrefix(v T) {
	td.mu.Lock()
	td.prefix = v
	td.mu.Unlock()
	td.status.Store(statusPrefix)
}

// read returns the current status and the corresponding value.
func (td *tileDescriptor[T]) read() (int32, T) {
	s := td.status.Load()
	td.mu.Lock()
	defer td.mu.Unlock()
	// Re-load under the lock so value and status are consistent: status
	// only ever advances, and values are written before status.
	s2 := td.status.Load()
	if s2 > s {
		s = s2
	}
	switch s {
	case statusPrefix:
		return statusPrefix, td.prefix
	case statusAggregate:
		return statusAggregate, td.aggregate
	default:
		var zero T
		return statusInvalid, zero
	}
}

// SinglePass computes a parallel scan with decoupled look-back: each tile
// reduces its input once, publishes the aggregate, resolves its exclusive
// prefix by walking predecessor descriptors (consuming inclusive prefixes
// where available), publishes its own inclusive prefix, and writes its
// outputs — a single pass over the data. dst may alias src. Returns the
// total reduction.
//
// GPU decoupled look-back spins on descriptor flags; goroutines instead
// yield via runtime scheduling, preserving the algorithm's structure
// without burning cycles. Tiles are launched in index order so look-back
// distance stays short, as on the GPU.
func SinglePass[T any](d *device.Device, phase string, op Op[T], src, dst []T, inclusive bool) T {
	return singlePass(d, nil, phase, op, src, dst, inclusive)
}

func singlePass[T any](d *device.Device, a *device.Arena, phase string, op Op[T], src, dst []T, inclusive bool) T {
	n := len(src)
	if len(dst) < n {
		panic("scan: dst shorter than src")
	}
	if n == 0 {
		return op.Identity
	}
	tiles := (n + tileSize - 1) / tileSize
	if tiles == 1 || (d.Workers() == 1 && !d.ModelledTime()) {
		stop := d.Timers().Start(phase)
		defer stop()
		return Sequential(op, src, dst, inclusive)
	}
	descs := device.Alloc[tileDescriptor[T]](a, tiles)
	var total T
	// One tile per device block (see Blocked). Serial execution visits
	// blocks in index order, so the look-back below always finds its
	// predecessor resolved and never spins.
	bs := d.Config().BlockSize
	d.LaunchBlocks(phase, tiles*bs, func(t, _, _ int) {
		lo, hi := tileBounds(t, n)
		// Phase 1: tile-local reduction.
		agg := op.Identity
		for i := lo; i < hi; i++ {
			agg = op.Combine(agg, src[i])
		}
		descs[t].publishAggregate(agg)

		// Phase 2: decoupled look-back to resolve the exclusive prefix.
		exclusive := op.Identity
		pending := make([]T, 0, 8) // aggregates seen, in reverse tile order
		for p := t - 1; p >= 0; {
			status, v := descs[p].read()
			switch status {
			case statusPrefix:
				exclusive = v
				p = -1 // done
			case statusAggregate:
				pending = append(pending, v)
				p--
			default:
				// Predecessor not ready; let its goroutine run.
				yield()
			}
		}
		for i := len(pending) - 1; i >= 0; i-- {
			exclusive = op.Combine(exclusive, pending[i])
		}
		inclusivePrefix := op.Combine(exclusive, agg)
		descs[t].publishPrefix(inclusivePrefix)
		if t == tiles-1 {
			total = inclusivePrefix
		}

		// Phase 3: produce outputs.
		acc := exclusive
		for i := lo; i < hi; i++ {
			if inclusive {
				acc = op.Combine(acc, src[i])
				dst[i] = acc
			} else {
				x := src[i]
				dst[i] = acc
				acc = op.Combine(acc, x)
			}
		}
	})
	return total
}

func tileBounds(t, n int) (lo, hi int) {
	lo = t * tileSize
	hi = lo + tileSize
	if hi > n {
		hi = n
	}
	return lo, hi
}
