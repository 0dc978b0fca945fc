package core

// The stable partition of §3.3 as the paper writes it: a
// least-significant-digit radix sort over the symbols' column tags that
// moves the symbols and their record tags along with the sort key. After
// sorting, all symbols of a column lie cohesively in memory (the
// column's concatenated symbol string), and the histogram maintained
// while sorting yields the CSS offsets.
//
// Each pass performs the paper's three sub-steps: (1) per-tile
// histogram over the digit, (2) exclusive prefix sum over the histogram
// counts in bucket-major order (making the pass stable across tiles),
// (3) scatter.
//
// The pipeline does not sort: tag.go fuses tagging and partitioning into
// a tag-scatter that never materialises per-symbol tags. This file keeps
// the paper's partition as the oracle the fused scatter must equal
// (oracleTagPartition in fused_test.go), with its own checks.

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/scan"
)

// radixDigitBits is the number of key bits consumed per pass.
const radixDigitBits = 8

// radixBuckets is the number of partitions per pass.
const radixBuckets = 1 << radixDigitBits

// radixTile is the number of elements a tile (one logical sort thread
// block) processes per pass.
const radixTile = 4096

// radixSortPermutation computes a stable permutation that sorts keys:
// the returned perm satisfies keys[perm[0]] <= keys[perm[1]] <= …, with
// ties in original order. keyBits bounds the significant bits of any key
// (0 derives it from the maximum key). The input is not modified.
func radixSortPermutation(d *device.Device, phase string, keys []uint32, keyBits int) []int32 {
	n := len(keys)
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	if n == 0 {
		return perm
	}
	if keyBits <= 0 {
		var maxKey uint32
		for _, k := range keys {
			maxKey = max(maxKey, k)
		}
		keyBits = max(bits.Len32(maxKey), 1)
	}
	cur, tmp := perm, make([]int32, n)
	for shift := 0; shift < keyBits; shift += radixDigitBits {
		radixPass(d, phase, keys, cur, tmp, uint(shift))
		cur, tmp = tmp, cur
	}
	return cur
}

// radixPass performs one stable partitioning pass: it reorders src into
// dst so that elements are grouped by the digit keys[src[i]]>>shift &
// 0xFF, preserving relative order within a digit. One tile maps to one
// device block, the granularity a GPU radix pass works at.
func radixPass(d *device.Device, phase string, keys []uint32, src, dst []int32, shift uint) {
	n := len(src)
	tiles := (n + radixTile - 1) / radixTile
	bs := d.Config().BlockSize

	// (1) Per-tile histogram, written in bucket-major layout
	// hist[b*tiles+t] so step (2) is a single contiguous prefix sum.
	hist := make([]int64, tiles*radixBuckets)
	d.LaunchBlocks(phase, tiles*bs, func(t, _, _ int) {
		lo, hi := radixTileBounds(t, n)
		var h [radixBuckets]int64
		for i := lo; i < hi; i++ {
			h[(keys[src[i]]>>shift)&(radixBuckets-1)]++
		}
		for b := 0; b < radixBuckets; b++ {
			hist[b*tiles+t] = h[b]
		}
	})

	// (2) Exclusive prefix sum over the bucket-major histogram: for
	// bucket b, tile t the starting output offset is
	//   Σ_{b'<b} total(b')  +  Σ_{t'<t} hist[t'][b],
	// which is exactly the exclusive scan of hist in this layout.
	offsets := make([]int64, tiles*radixBuckets)
	total := scan.ExclusiveArena(d, nil, phase, scan.Sum[int64](), hist, offsets)
	if total != int64(n) {
		panic(fmt.Sprintf("radix: histogram mismatch: %d of %d", total, n))
	}

	// (3) Scatter, stable within each tile.
	d.LaunchBlocks(phase, tiles*bs, func(t, _, _ int) {
		lo, hi := radixTileBounds(t, n)
		var off [radixBuckets]int64
		for b := 0; b < radixBuckets; b++ {
			off[b] = offsets[b*tiles+t]
		}
		for i := lo; i < hi; i++ {
			b := (keys[src[i]] >> shift) & (radixBuckets - 1)
			dst[off[b]] = src[i]
			off[b]++
		}
	})
}

// radixGather permutes src into dst by perm: dst[i] = src[perm[i]]. It
// is the payload-movement kernel: symbols and record tags move along
// with the sort key (§3.3) by gathering through the sort permutation.
func radixGather[T any](d *device.Device, phase string, dst, src []T, perm []int32) {
	if len(dst) != len(perm) {
		panic(fmt.Sprintf("radix: gather length mismatch dst=%d perm=%d", len(dst), len(perm)))
	}
	d.LaunchBlocks(phase, len(perm), func(_, first, limit int) {
		for i := first; i < limit; i++ {
			dst[i] = src[perm[i]]
		}
	})
}

// radixHistogram counts the occurrences of each key in [0, numKeys): the
// histogram "maintained while sorting" that §3.3 reuses to identify the
// CSS offsets of the columns.
func radixHistogram(d *device.Device, phase string, keys []uint32, numKeys int) []int64 {
	out := make([]int64, numKeys)
	tiles := (len(keys) + radixTile - 1) / radixTile
	if tiles == 0 {
		return out
	}
	partial := make([]int64, tiles*numKeys)
	bs := d.Config().BlockSize
	d.LaunchBlocks(phase, tiles*bs, func(t, _, _ int) {
		lo, hi := radixTileBounds(t, len(keys))
		h := partial[t*numKeys : (t+1)*numKeys]
		for i := lo; i < hi; i++ {
			h[keys[i]]++
		}
	})
	for t := 0; t < tiles; t++ {
		for k := 0; k < numKeys; k++ {
			out[k] += partial[t*numKeys+k]
		}
	}
	return out
}

func radixTileBounds(t, n int) (lo, hi int) {
	lo = t * radixTile
	return lo, min(lo+radixTile, n)
}

func refStablePermutation(keys []uint32) []int32 {
	perm := make([]int32, len(keys))
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(a, b int) bool { return keys[perm[a]] < keys[perm[b]] })
	return perm
}

func TestRadixSortMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	d := device.New(device.Config{Workers: 4})
	sizes := []int{0, 1, 2, 100, radixTile, radixTile + 1, 3*radixTile + 777}
	for _, n := range sizes {
		for _, maxKey := range []uint32{1, 2, 9, 255, 256, 1 << 12, 1 << 20} {
			keys := make([]uint32, n)
			for i := range keys {
				keys[i] = uint32(rng.Int63()) % maxKey
			}
			got := radixSortPermutation(d, "t", keys, 0)
			want := refStablePermutation(keys)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d maxKey=%d: perm[%d] = %d, want %d (keys %d vs %d)",
						n, maxKey, i, got[i], want[i], keys[got[i]], keys[want[i]])
				}
			}
		}
	}
}

func TestRadixSortExplicitKeyBits(t *testing.T) {
	d := device.New(device.Config{Workers: 2})
	keys := []uint32{3, 1, 2, 1, 0, 3}
	got := radixSortPermutation(d, "t", keys, 2)
	want := refStablePermutation(keys)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("perm[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestRadixSortStabilityExplicit(t *testing.T) {
	// All-equal keys: the permutation must be the identity.
	d := device.New(device.Config{Workers: 4})
	n := 2*radixTile + 99
	keys := make([]uint32, n)
	perm := radixSortPermutation(d, "t", keys, 0)
	for i := range perm {
		if perm[i] != int32(i) {
			t.Fatalf("equal keys permuted: perm[%d] = %d", i, perm[i])
		}
	}
}

func TestRadixGather(t *testing.T) {
	d := device.New(device.Config{Workers: 4})
	src := []byte{'a', 'b', 'c', 'd'}
	perm := []int32{2, 0, 3, 1}
	dst := make([]byte, 4)
	radixGather(d, "t", dst, src, perm)
	if string(dst) != "cadb" {
		t.Errorf("gather = %q", dst)
	}
}

func TestRadixGatherLengthMismatchPanics(t *testing.T) {
	d := device.New(device.Config{Workers: 1})
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	radixGather(d, "t", make([]byte, 3), make([]byte, 4), make([]int32, 4))
}

func TestRadixHistogramKeys(t *testing.T) {
	d := device.New(device.Config{Workers: 4})
	keys := []uint32{0, 1, 1, 2, 2, 2, 0}
	h := radixHistogram(d, "t", keys, 4)
	want := []int64{2, 2, 3, 0}
	for i, w := range want {
		if h[i] != w {
			t.Errorf("hist[%d] = %d, want %d", i, h[i], w)
		}
	}
	empty := radixHistogram(d, "t", nil, 3)
	for i, v := range empty {
		if v != 0 {
			t.Errorf("empty hist[%d] = %d", i, v)
		}
	}
}

func TestRadixHistogramKeysLarge(t *testing.T) {
	d := device.New(device.Config{Workers: 8})
	rng := rand.New(rand.NewSource(17))
	n := 5*radixTile + 31
	numKeys := 17
	keys := make([]uint32, n)
	want := make([]int64, numKeys)
	for i := range keys {
		keys[i] = uint32(rng.Intn(numKeys))
		want[keys[i]]++
	}
	h := radixHistogram(d, "t", keys, numKeys)
	for k, w := range want {
		if h[k] != w {
			t.Errorf("hist[%d] = %d, want %d", k, h[k], w)
		}
	}
}

// TestRadixSortQuick property-tests the permutation: sorted order and
// stability via (key, originalIndex) lexicographic comparison.
func TestRadixSortQuick(t *testing.T) {
	d := device.New(device.Config{Workers: 4})
	f := func(raw []uint16) bool {
		keys := make([]uint32, len(raw))
		for i, r := range raw {
			keys[i] = uint32(r) % 37
		}
		perm := radixSortPermutation(d, "t", keys, 0)
		if len(perm) != len(keys) {
			return false
		}
		seen := make([]bool, len(keys))
		for i := range perm {
			p := int(perm[i])
			if p < 0 || p >= len(keys) || seen[p] {
				return false // not a permutation
			}
			seen[p] = true
			if i > 0 {
				prev, cur := perm[i-1], perm[i]
				if keys[prev] > keys[cur] {
					return false // not sorted
				}
				if keys[prev] == keys[cur] && prev > cur {
					return false // not stable
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
