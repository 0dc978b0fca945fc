package scan

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/device"
)

func intsOp() Op[int64] { return Sum[int64]() }

func refScan(op Op[int64], src []int64, inclusive bool) []int64 {
	out := make([]int64, len(src))
	Sequential(op, src, out, inclusive)
	return out
}

func TestSequentialScan(t *testing.T) {
	// The worked example from §2 of the paper.
	src := []int64{3, 5, 1, 2, 9, 7, 4, 2}
	wantIncl := []int64{3, 8, 9, 11, 20, 27, 31, 33}
	wantExcl := []int64{0, 3, 8, 9, 11, 20, 27, 31}

	got := make([]int64, len(src))
	total := Sequential(intsOp(), src, got, true)
	for i := range wantIncl {
		if got[i] != wantIncl[i] {
			t.Errorf("inclusive[%d] = %d, want %d", i, got[i], wantIncl[i])
		}
	}
	if total != 33 {
		t.Errorf("total = %d, want 33", total)
	}
	total = Sequential(intsOp(), src, got, false)
	for i := range wantExcl {
		if got[i] != wantExcl[i] {
			t.Errorf("exclusive[%d] = %d, want %d", i, got[i], wantExcl[i])
		}
	}
	if total != 33 {
		t.Errorf("total = %d, want 33", total)
	}
}

func TestParallelScansMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{0, 1, 2, tileSize - 1, tileSize, tileSize + 1, 3*tileSize + 17, 10 * tileSize}
	for _, workers := range []int{1, 4} {
		d := device.New(device.Config{Workers: workers})
		for _, n := range sizes {
			src := make([]int64, n)
			for i := range src {
				src[i] = int64(rng.Intn(100) - 50)
			}
			for _, inclusive := range []bool{false, true} {
				want := refScan(intsOp(), src, inclusive)
				gotB := make([]int64, n)
				totB := Blocked(d, "t", intsOp(), src, gotB, inclusive)
				gotS := make([]int64, n)
				totS := SinglePass(d, "t", intsOp(), src, gotS, inclusive)
				var wantTotal int64
				for _, x := range src {
					wantTotal += x
				}
				if totB != wantTotal || totS != wantTotal {
					t.Fatalf("n=%d w=%d incl=%v: totals %d/%d want %d", n, workers, inclusive, totB, totS, wantTotal)
				}
				for i := range want {
					if gotB[i] != want[i] {
						t.Fatalf("Blocked n=%d w=%d incl=%v idx=%d: %d want %d", n, workers, inclusive, i, gotB[i], want[i])
					}
					if gotS[i] != want[i] {
						t.Fatalf("SinglePass n=%d w=%d incl=%v idx=%d: %d want %d", n, workers, inclusive, i, gotS[i], want[i])
					}
				}
			}
		}
	}
}

func TestScanInPlace(t *testing.T) {
	d := device.New(device.Config{Workers: 4})
	n := 3*tileSize + 5
	src := make([]int64, n)
	for i := range src {
		src[i] = int64(i % 7)
	}
	want := refScan(intsOp(), src, false)
	SinglePass(d, "t", intsOp(), src, src, false)
	for i := range want {
		if src[i] != want[i] {
			t.Fatalf("in-place exclusive scan wrong at %d: %d want %d", i, src[i], want[i])
		}
	}
}

// matrix2 is a non-commutative monoid (2x2 boolean "composition"
// matrices represented as index maps), exercising the associative-only
// requirement of §2.
type mapping [2]uint8

var mapIdentity = mapping{0, 1}

func composeMapping(a, b mapping) mapping {
	return mapping{b[a[0]], b[a[1]]}
}

func mappingOp() Op[mapping] {
	return Op[mapping]{Identity: mapIdentity, Combine: composeMapping}
}

func TestScanNonCommutativeOperator(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 4*tileSize + 123
	src := make([]mapping, n)
	for i := range src {
		src[i] = mapping{uint8(rng.Intn(2)), uint8(rng.Intn(2))}
	}
	want := make([]mapping, n)
	Sequential(mappingOp(), src, want, false)

	d := device.New(device.Config{Workers: 8})
	got := make([]mapping, n)
	SinglePass(d, "t", mappingOp(), src, got, false)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("non-commutative scan wrong at %d: %v want %v", i, got[i], want[i])
		}
	}
	got2 := make([]mapping, n)
	Blocked(d, "t", mappingOp(), src, got2, true)
	want2 := make([]mapping, n)
	Sequential(mappingOp(), src, want2, true)
	for i := range want2 {
		if got2[i] != want2[i] {
			t.Fatalf("blocked non-commutative scan wrong at %d", i)
		}
	}
}

func TestScanQuickAgainstSequential(t *testing.T) {
	d := device.New(device.Config{Workers: 4})
	f := func(xs []int32, inclusive bool) bool {
		src := make([]int64, len(xs))
		for i, x := range xs {
			src[i] = int64(x)
		}
		want := refScan(intsOp(), src, inclusive)
		got := make([]int64, len(src))
		SinglePass(d, "t", intsOp(), src, got, inclusive)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestExclusiveInclusiveHelpers(t *testing.T) {
	d := device.New(device.Config{Workers: 2})
	src := []int64{1, 2, 3}
	dst := make([]int64, 3)
	if tot := Exclusive(d, "t", intsOp(), src, dst); tot != 6 {
		t.Errorf("total = %d", tot)
	}
	if dst[0] != 0 || dst[1] != 1 || dst[2] != 3 {
		t.Errorf("exclusive = %v", dst)
	}
}

func TestScanShortDstPanics(t *testing.T) {
	d := device.New(device.Config{Workers: 2})
	defer func() {
		if recover() == nil {
			t.Error("want panic for short dst")
		}
	}()
	SinglePass(d, "t", intsOp(), make([]int64, 10), make([]int64, 5), false)
}

func TestMaxOp(t *testing.T) {
	op := Max[int64]()
	out := make([]int64, 4)
	total := Sequential(op, []int64{3, 1, 4, 1}, out, true)
	if total != 4 {
		t.Errorf("max total = %d", total)
	}
	want := []int64{3, 3, 4, 4}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("max scan[%d] = %d, want %d", i, out[i], want[i])
		}
	}
}

func BenchmarkSinglePassScan(b *testing.B) {
	d := device.Default()
	n := 1 << 20
	src := make([]int64, n)
	for i := range src {
		src[i] = int64(i & 0xFF)
	}
	dst := make([]int64, n)
	b.SetBytes(int64(n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SinglePass(d, "bench", intsOp(), src, dst, false)
	}
}

func BenchmarkBlockedScan(b *testing.B) {
	d := device.Default()
	n := 1 << 20
	src := make([]int64, n)
	for i := range src {
		src[i] = int64(i & 0xFF)
	}
	dst := make([]int64, n)
	b.SetBytes(int64(n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Blocked(d, "bench", intsOp(), src, dst, false)
	}
}
