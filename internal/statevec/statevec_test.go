package statevec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/scan"
)

func randVector(rng *rand.Rand, states int) Vector {
	v := make(Vector, states)
	for i := range v {
		v[i] = uint8(rng.Intn(states))
	}
	return v
}

func TestIdentity(t *testing.T) {
	v := Identity(6)
	if !v.IsIdentity() {
		t.Error("Identity is not the identity")
	}
	for i := 0; i < 6; i++ {
		if v[i] != uint8(i) {
			t.Errorf("identity[%d] = %d", i, v[i])
		}
	}
}

// TestComposeDefinition checks a∘b = [b[a0], b[a1], …] against the
// definition in §3.1.
func TestComposeDefinition(t *testing.T) {
	a := Vector{1, 2, 0}
	b := Vector{2, 2, 1}
	got := Composed(a, b)
	want := Vector{b[1], b[2], b[0]} // {2, 1, 2}
	if !got.Equal(want) {
		t.Errorf("a∘b = %v, want %v", got, want)
	}
}

func TestComposeIdentityNeutral(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		states := 1 + rng.Intn(MaxStates)
		v := randVector(rng, states)
		id := Identity(states)
		if !Composed(id, v).Equal(v) {
			t.Fatalf("id∘v != v for %v", v)
		}
		if !Composed(v, id).Equal(v) {
			t.Fatalf("v∘id != v for %v", v)
		}
	}
}

// TestComposeAssociativityQuick is the property the whole algorithm rests
// on: (a∘b)∘c == a∘(b∘c) for arbitrary vectors.
func TestComposeAssociativityQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		states := 1 + rng.Intn(MaxStates)
		a, b, c := randVector(rng, states), randVector(rng, states), randVector(rng, states)
		left := Composed(Composed(a, b), c)
		right := Composed(a, Composed(b, c))
		return left.Equal(right)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestComposeNotCommutative(t *testing.T) {
	// Sanity: composition is not commutative in general, so the scan must
	// not assume it. This pins a concrete witness.
	a := Vector{1, 1}
	b := Vector{0, 0}
	if Composed(a, b).Equal(Composed(b, a)) {
		t.Error("expected a∘b != b∘a for the witness pair")
	}
}

func TestComposeInPlace(t *testing.T) {
	a := Vector{1, 2, 0}
	b := Vector{2, 2, 1}
	want := Composed(a, b)
	Compose(a, a, b) // dst aliases a
	if !a.Equal(want) {
		t.Errorf("in-place compose = %v, want %v", a, want)
	}
}

func TestComposeLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic on length mismatch")
		}
	}()
	Compose(make(Vector, 2), Vector{0, 1}, Vector{0, 1, 2})
}

// Op is the composite scan operator over vectors of the given state
// count, with the identity vector as neutral element. Combine allocates
// the result so scan tiles can retain values safely.
func Op(states int) scan.Op[Vector] {
	return scan.Op[Vector]{
		Identity: Identity(states),
		Combine: func(a, b Vector) Vector {
			return Composed(a, b)
		},
	}
}

// ExclusiveScan is the full parallel exclusive composite scan of §3.1
// over the chunk vectors: after the call, dst[c][s] is the state chunk c
// starts in, given the whole input started in state s. It returns the
// composite of all vectors (the end-state map of the entire input). It
// is the reference StartStates is checked against.
func ExclusiveScan(d *device.Device, phase string, states int, vectors []Vector, dst []Vector) Vector {
	return scan.Exclusive(d, phase, Op(states), vectors, dst)
}

// scanDevices are the device shapes the scans must agree on: the serial
// shortcut, real parallel tiles, and modelled time (always tiled).
func scanDevices() map[string]*device.Device {
	return map[string]*device.Device{
		"workers=1": device.New(device.Config{Workers: 1}),
		"workers=4": device.New(device.Config{Workers: 4}),
		"virtual":   device.New(device.Config{Workers: 2, VirtualWorkers: 64}),
	}
}

// TestExclusiveScanMatchesSequentialSimulation builds a random "input"
// of per-chunk vectors and verifies that the full composite scan and the
// packed start-state scan give every chunk the same start state a
// sequential DFA walk would, from every global start state. The chunk
// counts straddle StartStates' tile boundaries, and the state counts
// reach MaxStates so the top lane of a Word is used.
func TestExclusiveScanMatchesSequentialSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, chunks := range []int{0, 1, 2, 7, 100, TileChunks - 1, TileChunks, TileChunks + 1, 3*TileChunks + 5} {
		for _, states := range []int{2, 2 + rng.Intn(MaxStates-2), MaxStates} {
			vectors := make([]Vector, chunks)
			words := make([]Word, chunks)
			for i := range vectors {
				vectors[i] = randVector(rng, states)
				words[i] = Pack(vectors[i])
			}
			for name, d := range scanDevices() {
				dst := make([]Vector, chunks)
				total := ExclusiveScan(d, "t", states, vectors, dst)
				starts := make([]uint8, chunks)
				for start := 0; start < states; start++ {
					arena := device.NewArena()
					end := StartStates(d, arena, "t", states, words, uint8(start), starts)
					// Sequential reference: walk chunk by chunk.
					state := uint8(start)
					for c := 0; c < chunks; c++ {
						if got := dst[c][start]; got != state {
							t.Fatalf("%s chunks=%d states=%d start=%d chunk=%d: scan says %d, walk says %d",
								name, chunks, states, start, c, got, state)
						}
						if got := starts[c]; got != state {
							t.Fatalf("%s chunks=%d states=%d start=%d chunk=%d: packed scan says %d, walk says %d",
								name, chunks, states, start, c, got, state)
						}
						state = vectors[c][state]
					}
					if chunks > 0 && total[start] != state {
						t.Fatalf("%s: total[%d] = %d, walk says %d", name, start, total[start], state)
					}
					if end != state {
						t.Fatalf("%s chunks=%d states=%d: packed end state from %d = %d, walk says %d",
							name, chunks, states, start, end, state)
					}
				}
			}
		}
	}
}

// TestWordMatchesVector pins the packed representation to the reference
// Vector: lanes read like entries, lanes above the state count stay the
// identity, and a tile's composite is the Compose fold of its vectors.
func TestWordMatchesVector(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		states := 1 + rng.Intn(MaxStates)
		vectors := make([]Vector, rng.Intn(5))
		words := make([]Word, len(vectors))
		want := Identity(states)
		for i := range vectors {
			vectors[i] = randVector(rng, states)
			words[i] = Pack(vectors[i])
			want = Composed(want, vectors[i])
		}
		for i, v := range vectors {
			for s := 0; s < MaxStates; s++ {
				lane := uint8(s) // unused lanes hold the identity
				if s < states {
					lane = v[s]
				}
				if got := words[i].At(uint8(s)); got != lane {
					t.Fatalf("Pack(%v).At(%d) = %d, want %d", v, s, got, lane)
				}
			}
		}
		if got := compose(words, states); got != Pack(want) {
			t.Fatalf("compose(%v) = %#x, want Pack(%v) = %#x", vectors, uint64(got), want, uint64(Pack(want)))
		}
	}
}

func TestPackTooManyStatesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for a vector wider than a Word")
		}
	}()
	Pack(make(Vector, MaxStates+1))
}

func TestVectorString(t *testing.T) {
	v := Vector{2, 0}
	if got := v.String(); got != "[0→2 1→0]" {
		t.Errorf("String() = %q", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	v := Vector{1, 2, 3}
	c := v.Clone()
	c[0] = 9
	if v[0] != 1 {
		t.Error("clone aliases original")
	}
}
