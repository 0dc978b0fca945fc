// Package radix implements the stable partitioning step of §3.3: a
// least-significant-digit radix sort over the symbols' column-tags that
// moves the symbols and their record-tags along with the sort key. After
// sorting, all symbols of a column lie cohesively in memory (the column's
// concatenated symbol string), and the histogram maintained while sorting
// yields the CSS offsets.
//
// Each pass performs the paper's three sub-steps: (1) per-tile histogram
// over the digit, (2) exclusive prefix sum over the histogram counts in
// bucket-major order (making the pass stable across tiles), (3) scatter.
//
// The pipeline itself no longer sorts: internal/core fuses tagging and
// partitioning into a tag-scatter that never materialises per-symbol
// tags. This package is the paper's partition as written, and the core
// tests use it as the stable-partition oracle the fused scatter must
// equal.
package radix

import (
	"fmt"
	"math/bits"

	"repro/internal/device"
	"repro/internal/scan"
)

// digitBits is the number of key bits consumed per partitioning pass.
const digitBits = 8

// buckets is the number of partitions per pass.
const buckets = 1 << digitBits

// tileSize is the number of elements a tile (one logical sort thread
// block) processes per pass.
const tileSize = 4096

// SortPermutation computes a stable permutation that sorts keys: the
// returned perm satisfies keys[perm[0]] <= keys[perm[1]] <= …, with ties
// in original order. keyBits bounds the significant bits of any key
// (pass 0 for "derive from the maximum key"). The input is not modified.
func SortPermutation(d *device.Device, phase string, keys []uint32, keyBits int) []int32 {
	return SortPermutationArena(d, nil, phase, keys, keyBits)
}

// SortPermutationArena is SortPermutation with the permutation buffers
// and per-pass histograms drawn from the device arena. The returned
// permutation is arena-owned: it is valid until the arena is reset.
func SortPermutationArena(d *device.Device, a *device.Arena, phase string, keys []uint32, keyBits int) []int32 {
	n := len(keys)
	perm := device.Alloc[int32](a, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	if n == 0 {
		return perm
	}
	if keyBits <= 0 {
		var maxKey uint32
		for _, k := range keys {
			if k > maxKey {
				maxKey = k
			}
		}
		keyBits = bits.Len32(maxKey)
		if keyBits == 0 {
			keyBits = 1
		}
	}
	cur := perm
	tmp := device.Alloc[int32](a, n)
	for shift := 0; shift < keyBits; shift += digitBits {
		pass(d, a, phase, keys, cur, tmp, uint(shift))
		cur, tmp = tmp, cur
	}
	return cur
}

// pass performs one stable partitioning pass: it reorders src into dst so
// that elements are grouped by the digit keys[src[i]]>>shift & 0xFF,
// preserving relative order within a digit. One tile maps to one device
// block, the granularity a GPU radix pass works at.
func pass(d *device.Device, a *device.Arena, phase string, keys []uint32, src, dst []int32, shift uint) {
	n := len(src)
	tiles := (n + tileSize - 1) / tileSize
	bs := d.Config().BlockSize

	// (1) Per-tile histogram, written in bucket-major layout
	// hist[b*tiles+t] so step (2) is a single contiguous prefix sum.
	hist := device.Alloc[int64](a, tiles*buckets)
	d.LaunchBlocks(phase, tiles*bs, func(t, _, _ int) {
		lo, hi := tileBounds(t, n)
		var h [buckets]int64
		for i := lo; i < hi; i++ {
			h[(keys[src[i]]>>shift)&(buckets-1)]++
		}
		for b := 0; b < buckets; b++ {
			hist[b*tiles+t] = h[b]
		}
	})

	// (2) Exclusive prefix sum over the bucket-major histogram: for
	// bucket b, tile t the starting output offset is
	//   Σ_{b'<b} total(b')  +  Σ_{t'<t} hist[t'][b],
	// which is exactly the exclusive scan of hist in this layout.
	offsets := device.Alloc[int64](a, tiles*buckets)
	total := scan.ExclusiveArena(d, a, phase, scan.Sum[int64](), hist, offsets)
	if total != int64(n) {
		panic(fmt.Sprintf("radix: histogram mismatch: %d of %d", total, n))
	}

	// (3) Scatter, stable within each tile.
	d.LaunchBlocks(phase, tiles*bs, func(t, _, _ int) {
		lo, hi := tileBounds(t, n)
		var off [buckets]int64
		for b := 0; b < buckets; b++ {
			off[b] = offsets[b*tiles+t]
		}
		for i := lo; i < hi; i++ {
			b := (keys[src[i]] >> shift) & (buckets - 1)
			dst[off[b]] = src[i]
			off[b]++
		}
	})
}

// Gather permutes src into dst by perm: dst[i] = src[perm[i]]. It is the
// payload-movement kernel: symbols and record-tags are moved along with
// the sort key (§3.3) by gathering through the sort permutation.
func Gather[T any](d *device.Device, phase string, dst, src []T, perm []int32) {
	if len(dst) != len(perm) {
		panic(fmt.Sprintf("radix: gather length mismatch dst=%d perm=%d", len(dst), len(perm)))
	}
	d.LaunchBlocks(phase, len(perm), func(_, first, limit int) {
		for i := first; i < limit; i++ {
			dst[i] = src[perm[i]]
		}
	})
}

// HistogramKeys counts the occurrences of each key in [0, numKeys). It is
// the histogram "maintained while sorting" that §3.3 reuses to identify
// the CSS offsets of the columns.
func HistogramKeys(d *device.Device, phase string, keys []uint32, numKeys int) []int64 {
	return HistogramKeysArena(d, nil, phase, keys, numKeys)
}

// HistogramKeysArena is HistogramKeys with the partial and output
// histograms drawn from the device arena (the output is arena-owned).
func HistogramKeysArena(d *device.Device, a *device.Arena, phase string, keys []uint32, numKeys int) []int64 {
	tiles := (len(keys) + tileSize - 1) / tileSize
	if tiles == 0 {
		return device.Alloc[int64](a, numKeys)
	}
	partial := device.Alloc[int64](a, tiles*numKeys)
	bs := d.Config().BlockSize
	d.LaunchBlocks(phase, tiles*bs, func(t, _, _ int) {
		lo, hi := tileBounds(t, len(keys))
		h := partial[t*numKeys : (t+1)*numKeys]
		for i := lo; i < hi; i++ {
			h[keys[i]]++
		}
	})
	out := device.Alloc[int64](a, numKeys)
	for t := 0; t < tiles; t++ {
		for k := 0; k < numKeys; k++ {
			out[k] += partial[t*numKeys+k]
		}
	}
	return out
}

func tileBounds(t, n int) (lo, hi int) {
	lo = t * tileSize
	hi = lo + tileSize
	if hi > n {
		hi = n
	}
	return lo, hi
}
