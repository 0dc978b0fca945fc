package radix

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/device"
)

func refStablePermutation(keys []uint32) []int32 {
	perm := make([]int32, len(keys))
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(a, b int) bool { return keys[perm[a]] < keys[perm[b]] })
	return perm
}

func TestSortPermutationMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	d := device.New(device.Config{Workers: 4})
	sizes := []int{0, 1, 2, 100, tileSize, tileSize + 1, 3*tileSize + 777}
	for _, n := range sizes {
		for _, maxKey := range []uint32{1, 2, 9, 255, 256, 1 << 12, 1 << 20} {
			keys := make([]uint32, n)
			for i := range keys {
				keys[i] = uint32(rng.Int63()) % maxKey
			}
			got := SortPermutation(d, "t", keys, 0)
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

func TestSortPermutationExplicitKeyBits(t *testing.T) {
	d := device.New(device.Config{Workers: 2})
	keys := []uint32{3, 1, 2, 1, 0, 3}
	got := SortPermutation(d, "t", keys, 2)
	want := refStablePermutation(keys)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("perm[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSortStabilityExplicit(t *testing.T) {
	// All-equal keys: the permutation must be the identity.
	d := device.New(device.Config{Workers: 4})
	n := 2*tileSize + 99
	keys := make([]uint32, n)
	perm := SortPermutation(d, "t", keys, 0)
	for i := range perm {
		if perm[i] != int32(i) {
			t.Fatalf("equal keys permuted: perm[%d] = %d", i, perm[i])
		}
	}
}

func TestGather(t *testing.T) {
	d := device.New(device.Config{Workers: 4})
	src := []byte{'a', 'b', 'c', 'd'}
	perm := []int32{2, 0, 3, 1}
	dst := make([]byte, 4)
	Gather(d, "t", dst, src, perm)
	if string(dst) != "cadb" {
		t.Errorf("gather = %q", dst)
	}
}

func TestGatherLengthMismatchPanics(t *testing.T) {
	d := device.New(device.Config{Workers: 1})
	defer func() {
		if recover() == nil {
			t.Error("want panic")
		}
	}()
	Gather(d, "t", make([]byte, 3), make([]byte, 4), make([]int32, 4))
}

func TestHistogramKeys(t *testing.T) {
	d := device.New(device.Config{Workers: 4})
	keys := []uint32{0, 1, 1, 2, 2, 2, 0}
	h := HistogramKeys(d, "t", keys, 4)
	want := []int64{2, 2, 3, 0}
	for i, w := range want {
		if h[i] != w {
			t.Errorf("hist[%d] = %d, want %d", i, h[i], w)
		}
	}
	empty := HistogramKeys(d, "t", nil, 3)
	for i, v := range empty {
		if v != 0 {
			t.Errorf("empty hist[%d] = %d", i, v)
		}
	}
}

func TestHistogramKeysLarge(t *testing.T) {
	d := device.New(device.Config{Workers: 8})
	rng := rand.New(rand.NewSource(17))
	n := 5*tileSize + 31
	numKeys := 17
	keys := make([]uint32, n)
	want := make([]int64, numKeys)
	for i := range keys {
		keys[i] = uint32(rng.Intn(numKeys))
		want[keys[i]]++
	}
	h := HistogramKeys(d, "t", keys, numKeys)
	for k, w := range want {
		if h[k] != w {
			t.Errorf("hist[%d] = %d, want %d", k, h[k], w)
		}
	}
}

// TestSortQuick property-tests the permutation: sorted order and
// stability via (key, originalIndex) lexicographic comparison.
func TestSortQuick(t *testing.T) {
	d := device.New(device.Config{Workers: 4})
	f := func(raw []uint16) bool {
		keys := make([]uint32, len(raw))
		for i, r := range raw {
			keys[i] = uint32(r) % 37
		}
		perm := SortPermutation(d, "t", keys, 0)
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

func BenchmarkSortPermutation(b *testing.B) {
	d := device.Default()
	n := 1 << 20
	keys := make([]uint32, n)
	rng := rand.New(rand.NewSource(1))
	for i := range keys {
		keys[i] = uint32(rng.Intn(17))
	}
	b.SetBytes(int64(n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SortPermutation(d, "bench", keys, 5)
	}
}
