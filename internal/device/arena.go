package device

import (
	"fmt"
	"math/bits"
	"reflect"
	"sort"
	"sync"
)

// Arena is the simulated device's memory allocator. The paper's GPU
// pipeline operates on pre-allocated device buffers: each kernel writes
// into device memory that persists across launches, and the streaming
// mode (§4.4) reuses the same allocations for every partition, keeping
// the device footprint fixed. Go's substitute is a size-classed
// recycling allocator: Alloc hands out zeroed buffers, Reset returns
// every buffer handed out since the previous Reset to per-class free
// lists, and steady-state pipeline runs are served entirely from those
// free lists — no garbage is generated and the footprint stops growing
// after the first run.
//
// Buffers are classed by element type and by capacity rounded up to a
// power of two, so a request is satisfied by any recycled buffer of the
// same type and class. Element types containing pointers (e.g. slices
// of slices) are recycled through the same typed free lists, which keeps
// the garbage collector aware of them.
//
// An Arena is safe for concurrent Alloc from device kernels. Reset must
// not race with Alloc or with use of previously returned buffers — the
// pipeline guarantees this by resetting only between runs. Stages that
// run concurrent *column* work (the parallel convert stage) carve one
// Shard per worker off the run arena: the shard draws on the parent's
// reserves but tracks its own live set and statistics, which Drain
// merges back when the worker finishes.
type Arena struct {
	parent *Arena // non-nil for shards; allocation reserves live on the root
	mu     sync.Mutex
	free   map[arenaClass][]any
	live   []liveBuf
	phase  string

	liveBytes     int64
	peakBytes     int64
	reservedBytes int64
	allocs        int64
	reuses        int64
	phasePeaks    map[string]int64
}

// arenaClass identifies a free list: one element type at one
// power-of-two capacity.
type arenaClass struct {
	typ   reflect.Type
	log2n int
}

// maxLog2Class bounds the upward free-list search (2^48 elements is far
// beyond any addressable buffer).
const maxLog2Class = 48

// liveBuf records one outstanding allocation so Reset can recycle it.
type liveBuf struct {
	class arenaClass
	buf   any
	bytes int64
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{
		free:       make(map[arenaClass][]any),
		phasePeaks: make(map[string]int64),
	}
}

// Shard carves a sub-arena off a run arena for one concurrent worker.
// Allocations
// through the shard are served from the parent's free lists (and charge
// the parent's reserved footprint on a miss), but the live-buffer list
// and the alloc/reuse counters are shard-local, so concurrent workers
// contend on the parent only for the free-list pop itself. When the
// worker finishes it must call Drain exactly once: the shard's live
// buffers and statistics merge back into the parent, and the next
// parent Reset recycles them like any other run buffer. A nil arena
// shards to nil (the plain-make degradation of Alloc).
//
// Shards must not be Reset and must not outlive the parent's next
// Reset; nesting (sharding a shard) is not supported.
func (a *Arena) Shard() *Arena {
	if a == nil {
		return nil
	}
	if a.parent != nil {
		panic("device: cannot shard an arena shard")
	}
	a.mu.Lock()
	phase := a.phase
	a.mu.Unlock()
	return &Arena{
		parent:     a,
		phase:      phase,
		phasePeaks: make(map[string]int64),
	}
}

// Drain merges the shard's outstanding buffers and statistics back into
// its parent. It is a no-op on a nil or non-shard arena, so call sites
// can drain unconditionally. After Drain the shard is empty and may be
// reused for further allocations (draining again later).
func (a *Arena) Drain() {
	if a == nil || a.parent == nil {
		return
	}
	p := a.parent
	a.mu.Lock()
	live := a.live
	liveBytes := a.liveBytes
	allocs, reuses := a.allocs, a.reuses
	a.live = nil
	a.liveBytes = 0
	a.peakBytes = 0
	a.allocs, a.reuses = 0, 0
	a.mu.Unlock()

	p.mu.Lock()
	p.live = append(p.live, live...)
	p.liveBytes += liveBytes
	p.allocs += allocs
	p.reuses += reuses
	// Within a run liveBytes only grows (buffers are freed by Reset, not
	// individually), so the merged total is the true concurrent peak; it
	// is attributed to the parent's current phase.
	if p.liveBytes > p.peakBytes {
		p.peakBytes = p.liveBytes
	}
	if p.liveBytes > p.phasePeaks[p.phase] {
		p.phasePeaks[p.phase] = p.liveBytes
	}
	p.mu.Unlock()
}

// Alloc returns a zeroed buffer of n elements of T, recycling a buffer
// returned by a previous Reset when one of the right type and size class
// is available. A nil arena degrades to plain make, so arena-aware code
// paths need no branching at call sites.
func Alloc[T any](a *Arena, n int) []T {
	return alloc[T](a, n, false)
}

// AllocDirty is Alloc without the zeroing of recycled buffers: the
// returned buffer may hold arbitrary bytes from a previous run. It is
// only for buffers whose first writer overwrites every element before
// any read — the partition scatter's sorted payloads and field offsets,
// the parse kernels' per-chunk arrays and the mark-based CSS indexes'
// positions — where the memclr of a recycled O(input) buffer is pure
// overhead. Size classing, recycling, and all footprint statistics
// behave exactly like Alloc.
func AllocDirty[T any](a *Arena, n int) []T {
	return alloc[T](a, n, true)
}

func alloc[T any](a *Arena, n int, dirty bool) []T {
	if a == nil {
		return make([]T, n)
	}
	if n < 0 {
		panic(fmt.Sprintf("device: arena alloc of %d elements", n))
	}
	log2n := 0
	if n > 1 {
		log2n = bits.Len(uint(n - 1))
	}
	capacity := 1 << log2n
	typ := reflect.TypeFor[T]()
	if typ.Kind() == reflect.Interface {
		panic("device: arena cannot allocate interface element types")
	}
	class := arenaClass{typ: typ, log2n: log2n}
	elemSize := int64(typ.Size())

	a.mu.Lock()
	var buf []T
	recycled := false
	if a.parent != nil {
		// Shards have no free lists of their own (only Reset fills free
		// lists, and shards cannot be Reset): recycled buffers come from
		// the parent, and a fresh buffer charges the parent's reserve.
		// Lock order is always shard → parent; the parent never locks a
		// shard.
		p := a.parent
		p.mu.Lock()
		buf, class, recycled = popFreeLocked[T](p, class)
		if !recycled {
			p.reservedBytes += int64(capacity) * elemSize
		}
		p.mu.Unlock()
	} else {
		buf, class, recycled = popFreeLocked[T](a, class)
	}
	if recycled {
		capacity = 1 << class.log2n
		buf = buf[:n]
		a.reuses++
	} else {
		buf = make([]T, n, capacity) // make already zeroes
		if a.parent == nil {
			a.reservedBytes += int64(capacity) * elemSize
		}
	}
	bytes := int64(capacity) * elemSize
	a.allocs++
	a.live = append(a.live, liveBuf{class: class, buf: buf[:0:capacity], bytes: bytes})
	a.liveBytes += bytes
	if a.liveBytes > a.peakBytes {
		a.peakBytes = a.liveBytes
	}
	if a.liveBytes > a.phasePeaks[a.phase] {
		a.phasePeaks[a.phase] = a.liveBytes
	}
	a.mu.Unlock()

	if recycled && !dirty {
		clear(buf)
	}
	return buf
}

// popFreeLocked pops a recycled buffer of the smallest class able to
// serve want, best-fit upward: an exact-class miss is served from the
// smallest larger class with a free buffer, so a run over a smaller
// input (e.g. a streaming run's final, short partition) reuses the
// larger buffers of its predecessors instead of reserving new memory.
// The caller must hold a.mu.
func popFreeLocked[T any](a *Arena, want arenaClass) ([]T, arenaClass, bool) {
	for c := want; c.log2n <= maxLog2Class; c.log2n++ {
		if list := a.free[c]; len(list) > 0 {
			buf := list[len(list)-1].([]T)
			a.free[c] = list[:len(list)-1]
			return buf, c, true
		}
	}
	return nil, want, false
}

// Reset returns every buffer allocated since the previous Reset to the
// arena's free lists. The caller must not use those buffers afterwards,
// and every shard must have been drained first. The reserved footprint
// and high-water statistics survive a Reset — they describe the
// device's memory, not one run.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	if a.parent != nil {
		panic("device: Reset on an arena shard; Drain it instead")
	}
	a.mu.Lock()
	if a.free == nil {
		a.free = make(map[arenaClass][]any)
	}
	for _, lb := range a.live {
		a.free[lb.class] = append(a.free[lb.class], lb.buf)
	}
	a.live = a.live[:0]
	a.liveBytes = 0
	a.mu.Unlock()
}

// SetPhase attributes subsequent high-water marks to the named pipeline
// stage (the Timers-style accounting of per-stage footprints).
func (a *Arena) SetPhase(name string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.phase = name
	a.mu.Unlock()
}

// LiveBytes returns the bytes currently handed out (for a shard: handed
// out through the shard and not yet drained).
func (a *Arena) LiveBytes() int64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.liveBytes
}

// PeakBytes returns the high-water mark of live bytes over the arena's
// lifetime — the simulated device's peak memory footprint.
func (a *Arena) PeakBytes() int64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.peakBytes
}

// ReservedBytes returns the total bytes of backing buffers the arena has
// ever created (shard allocations are charged to the parent). In steady
// state (identical runs separated by Reset) this stops growing after the
// first run: every request is served from a free list, mirroring the
// paper's fixed device allocations.
func (a *Arena) ReservedBytes() int64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.reservedBytes
}

// Allocs returns the number of Alloc calls and how many of them were
// served by recycling. Shard activity is included after Drain.
func (a *Arena) Allocs() (total, reused int64) {
	if a == nil {
		return 0, 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.allocs, a.reuses
}

// PhasePeak returns the high-water mark of live bytes observed while the
// named stage was current.
func (a *Arena) PhasePeak(name string) int64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.phasePeaks[name]
}

// PhasePeaks returns a copy of the per-stage high-water marks.
func (a *Arena) PhasePeaks() map[string]int64 {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]int64, len(a.phasePeaks))
	for k, v := range a.phasePeaks {
		out[k] = v
	}
	return out
}

// Phases returns the stage names with recorded peaks, sorted.
func (a *Arena) Phases() []string {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	names := make([]string, 0, len(a.phasePeaks))
	for k := range a.phasePeaks {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
