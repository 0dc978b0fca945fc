package bitmap

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestSetGetClear(t *testing.T) {
	b := New(200)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		b.Set(i)
		if !b.Get(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	b.Clear(64)
	if b.Get(64) {
		t.Error("bit 64 not cleared")
	}
	if b.PopCount() != 7 {
		t.Errorf("popcount = %d, want 7", b.PopCount())
	}
}

func TestPopCountRange(t *testing.T) {
	n := 300
	b := New(n)
	ref := make([]bool, n)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			b.Set(i)
			ref[i] = true
		}
	}
	for trial := 0; trial < 500; trial++ {
		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n+1-lo)
		want := 0
		for i := lo; i < hi; i++ {
			if ref[i] {
				want++
			}
		}
		if got := b.PopCountRange(lo, hi); got != want {
			t.Fatalf("PopCountRange(%d,%d) = %d, want %d", lo, hi, got, want)
		}
	}
}

func TestFirstLastSetInRange(t *testing.T) {
	n := 257
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		b := New(n)
		ref := make([]bool, n)
		for i := 0; i < n; i++ {
			if rng.Intn(10) == 0 {
				b.Set(i)
				ref[i] = true
			}
		}
		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n+1-lo)
		wantFirst, wantLast, any := 0, 0, false
		for i := lo; i < hi; i++ {
			if ref[i] {
				if !any {
					wantFirst = i
				}
				wantLast = i
				any = true
			}
		}
		gotFirst, okF := b.FirstSetInRange(lo, hi)
		gotLast, okL := b.LastSetInRange(lo, hi)
		if okF != any || okL != any {
			t.Fatalf("range [%d,%d): ok mismatch first=%v last=%v want %v", lo, hi, okF, okL, any)
		}
		if any && (gotFirst != wantFirst || gotLast != wantLast) {
			t.Fatalf("range [%d,%d): first=%d/%d last=%d/%d", lo, hi, gotFirst, wantFirst, gotLast, wantLast)
		}
	}
}

func TestRangeEdgeCases(t *testing.T) {
	b := New(128)
	b.Set(0)
	b.Set(127)
	if got := b.PopCountRange(0, 128); got != 2 {
		t.Errorf("full range popcount = %d", got)
	}
	if got := b.PopCountRange(5, 5); got != 0 {
		t.Errorf("empty range popcount = %d", got)
	}
	if _, ok := b.FirstSetInRange(5, 5); ok {
		t.Error("empty range must have no first set bit")
	}
	if i, ok := b.LastSetInRange(0, 128); !ok || i != 127 {
		t.Errorf("last = %d/%v", i, ok)
	}
	if i, ok := b.FirstSetInRange(0, 128); !ok || i != 0 {
		t.Errorf("first = %d/%v", i, ok)
	}
	if i, ok := b.LastSetInRange(1, 127); ok {
		t.Errorf("interior range found %d", i)
	}
}

func TestBadRangePanics(t *testing.T) {
	b := New(64)
	for _, r := range [][2]int{{-1, 10}, {0, 65}, {10, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("range %v: want panic", r)
				}
			}()
			b.PopCountRange(r[0], r[1])
		}()
	}
}

// TestStoreChunkWordConcurrent verifies the emit kernel's write-out
// discipline: goroutines write disjoint, unaligned bit ranges whose
// boundary words they share, one StoreChunkWord per backing word they
// touch, and the result must equal a serial construction.
func TestStoreChunkWordConcurrent(t *testing.T) {
	const n = 10_000 // the last backing word is partial
	rng := rand.New(rand.NewSource(3))
	ref := New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			ref.Set(i)
		}
	}
	for _, chunk := range []int{31, 1023, 1024} {
		for _, start := range []int{0, 17} {
			b := New(n)
			bounds := [][2]int{{0, start}}
			for lo := start; lo < n; lo += chunk {
				bounds = append(bounds, [2]int{lo, min(lo+chunk, n)})
			}
			var wg sync.WaitGroup
			for _, r := range bounds {
				wg.Add(1)
				go func(lo, hi int) {
					defer wg.Done()
					if lo == hi {
						return
					}
					for w := lo / wordBits; w <= (hi-1)/wordBits; w++ {
						var x uint64
						for i := max(lo, w*wordBits); i < min(hi, w*wordBits+wordBits); i++ {
							if ref.Get(i) {
								x |= 1 << (i % wordBits)
							}
						}
						b.StoreChunkWord(w, lo, hi, x)
					}
				}(r[0], r[1])
			}
			wg.Wait()
			for w := range ref.words {
				if b.Word(w) != ref.Word(w) {
					t.Fatalf("chunk %d start %d: word %d = %#x, want %#x", chunk, start, w, b.Word(w), ref.Word(w))
				}
			}
		}
	}
}

// TestStoreChunkWordOwnership pins the ownership rule: a word the chunk
// owns outright is overwritten, a word it shares with a neighbour is
// OR-merged, and a word running past Len() belongs to the last chunk.
// TestClearChunkConcurrent is the redo of a chunk whose first emission
// was wrong: over a bitmap of all ones, every other chunk clears its
// range and stores the reference bits concurrently, while its
// neighbours keep theirs. Each chunk's bits must then be the
// reference's or all ones, at aligned and unaligned chunk sizes.
func TestClearChunkConcurrent(t *testing.T) {
	const n = 10_000
	rng := rand.New(rand.NewSource(4))
	ref := New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			ref.Set(i)
		}
	}
	for _, chunk := range []int{31, 1000, 1024} {
		b := New(n)
		for i := 0; i < n; i++ {
			b.Set(i)
		}
		var wg sync.WaitGroup
		for c, lo := 0, 0; lo < n; c, lo = c+1, lo+chunk {
			if c%2 == 1 {
				continue
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				b.ClearChunk(lo, hi)
				for w := lo / wordBits; w <= (hi-1)/wordBits; w++ {
					var x uint64
					for i := max(lo, w*wordBits); i < min(hi, w*wordBits+wordBits); i++ {
						if ref.Get(i) {
							x |= 1 << (i % wordBits)
						}
					}
					b.StoreChunkWord(w, lo, hi, x)
				}
			}(lo, min(lo+chunk, n))
		}
		wg.Wait()
		for i := 0; i < n; i++ {
			want := (i/chunk)%2 == 1 || ref.Get(i)
			if b.Get(i) != want {
				t.Fatalf("chunk %d: bit %d = %v, want %v", chunk, i, b.Get(i), want)
			}
		}
	}
}

func TestStoreChunkWordOwnership(t *testing.T) {
	b := New(200) // words 0..3; word 3 holds bits 192..199
	for w := 0; w < 4; w++ {
		b.words[w] = 1 << 63
	}
	b.StoreChunkWord(1, 64, 128, 1)  // owned: stored
	b.StoreChunkWord(0, 10, 128, 1)  // 64*0 < lo: shared
	b.StoreChunkWord(2, 100, 150, 1) // 64*2+64 > hi < Len(): shared
	b.StoreChunkWord(3, 192, 200, 1) // runs past Len(): owned
	want := []uint64{1<<63 | 1, 1, 1<<63 | 1, 1}
	for w, x := range want {
		if b.Word(w) != x {
			t.Errorf("word %d = %#x, want %#x", w, b.Word(w), x)
		}
	}
}

func TestPopCountRangeQuick(t *testing.T) {
	f := func(setBits []uint16, lo16, span16 uint16) bool {
		n := 1 << 12
		b := New(n)
		ref := make([]bool, n)
		for _, s := range setBits {
			i := int(s) % n
			b.Set(i)
			ref[i] = true
		}
		lo := int(lo16) % (n + 1)
		hi := lo + int(span16)%(n+1-lo)
		want := 0
		for i := lo; i < hi; i++ {
			if ref[i] {
				want++
			}
		}
		return b.PopCountRange(lo, hi) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSetOwnedConcurrent sets random bits from concurrent writers that
// each own an unaligned range of the bitmap, as the vector-delimited
// move pass sets delimiter bits in its tiles' CSS regions: the words a
// writer owns outright take plain ORs, the boundary words atomic ones,
// and the result must equal a serial build (and -race must stay quiet).
func TestSetOwnedConcurrent(t *testing.T) {
	const n = 10_000 // the last backing word is partial
	rng := rand.New(rand.NewSource(9))
	ref := New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			ref.Set(i)
		}
	}
	for _, region := range []int{1, 31, 100, 1024} {
		b := New(n)
		var wg sync.WaitGroup
		for lo := 0; lo < n; lo += region {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					if ref.Get(i) {
						b.SetOwned(i, lo, hi)
					}
				}
			}(lo, min(lo+region, n))
		}
		wg.Wait()
		for w := range ref.words {
			if b.Word(w) != ref.Word(w) {
				t.Fatalf("region %d: word %d = %#x, want %#x", region, w, b.Word(w), ref.Word(w))
			}
		}
	}
}

// TestFirstLastClearInRange checks the clear-bit searches against a
// scan of every range of a random bitmap with long set runs.
func TestFirstLastClearInRange(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(4))
	b := New(n)
	for i := 0; i < n; i++ {
		if (i/70)%2 == 1 || rng.Intn(5) != 0 {
			b.Set(i)
		}
	}
	for lo := 0; lo <= n; lo += 7 {
		for hi := lo; hi <= n; hi += 5 {
			first, last, any := -1, -1, false
			for i := lo; i < hi; i++ {
				if !b.Get(i) {
					if !any {
						first = i
					}
					last, any = i, true
				}
			}
			if f, ok := b.FirstClearInRange(lo, hi); ok != any || (ok && f != first) {
				t.Fatalf("FirstClearInRange(%d,%d) = %d,%v, want %d,%v", lo, hi, f, ok, first, any)
			}
			if l, ok := b.LastClearInRange(lo, hi); ok != any || (ok && l != last) {
				t.Fatalf("LastClearInRange(%d,%d) = %d,%v, want %d,%v", lo, hi, l, ok, last, any)
			}
		}
	}
}
