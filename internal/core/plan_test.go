package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/device"
	"repro/internal/dfa"
)

// TestPlanExecuteMatchesParse compiles once and executes repeatedly on
// one recycled arena: results must match the one-shot Parse, and the
// steady-state executions must be served from recycled device buffers.
func TestPlanExecuteMatchesParse(t *testing.T) {
	input := bytes.Repeat([]byte("12,abc,4.5\n"), 2000)
	want, err := Parse(input, Options{})
	if err != nil {
		t.Fatal(err)
	}

	plan, err := Compile(Options{})
	if err != nil {
		t.Fatal(err)
	}
	arena := device.NewArena()
	var afterFirst int64
	for i := 0; i < 4; i++ {
		arena.Reset()
		got, err := plan.Execute(input, plan.BaseExec(arena))
		if err != nil {
			t.Fatalf("execute %d: %v", i, err)
		}
		if got.Table.NumRows() != want.Table.NumRows() || got.Table.NumColumns() != want.Table.NumColumns() {
			t.Fatalf("execute %d: shape %dx%d, want %dx%d", i,
				got.Table.NumRows(), got.Table.NumColumns(), want.Table.NumRows(), want.Table.NumColumns())
		}
		for c := 0; c < want.Table.NumColumns(); c++ {
			for r := 0; r < want.Table.NumRows(); r++ {
				if want.Table.Column(c).ValueString(r) != got.Table.Column(c).ValueString(r) {
					t.Fatalf("execute %d: row %d col %d differs", i, r, c)
				}
			}
		}
		if i == 0 {
			afterFirst = arena.ReservedBytes()
		}
	}
	if grown := arena.ReservedBytes() - afterFirst; grown >= 1<<20 {
		t.Errorf("arena grew %d bytes across steady-state executions", grown)
	}
}

// TestPlanExecuteConcurrent runs one compiled plan from several
// goroutines, each with a private arena — the invariant the public
// Engine relies on. Run under -race.
func TestPlanExecuteConcurrent(t *testing.T) {
	input := bytes.Repeat([]byte("7,xyz,0.25\n"), 500)
	plan, err := Compile(Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.Execute(input, plan.BaseExec(nil))
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 6)
	for g := 0; g < 6; g++ {
		go func() {
			arena := device.NewArena()
			for i := 0; i < 5; i++ {
				arena.Reset()
				res, err := plan.Execute(input, plan.BaseExec(arena))
				if err != nil {
					errs <- err
					return
				}
				if res.Table.NumRows() != want.Table.NumRows() {
					errs <- fmt.Errorf("rows = %d, want %d", res.Table.NumRows(), want.Table.NumRows())
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < 6; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompileRejectsBadOptions checks the input-independent validation
// happens at compile time.
func TestCompileRejectsBadOptions(t *testing.T) {
	cases := []Options{
		{SelectColumns: []int{1, 1}},
		{SelectColumns: []int{-2}},
		{SkipRecords: []int64{3, 3}},
		{ExpectedColumns: -1},
	}
	for i, opts := range cases {
		if _, err := Compile(opts); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestConvertWorkersValidation pins the configuration error for negative
// worker counts, caught when the plan compiles.
func TestConvertWorkersValidation(t *testing.T) {
	for _, w := range []int{-1, -3} {
		if _, err := Compile(Options{ConvertWorkers: w}); err == nil {
			t.Errorf("Compile accepted ConvertWorkers %d", w)
		}
	}
}

// TestCompileKeepsMachineFastPath: the fused tables and the skip-ahead
// are properties of the machine, so a plan compiled over a machine with
// them switched off runs the split reference path.
func TestCompileKeepsMachineFastPath(t *testing.T) {
	for _, v := range []struct{ fused, skip bool }{{false, false}, {true, false}, {true, true}} {
		plan, err := Compile(Options{Machine: dfa.RFC4180().SetFastPath(v.fused, v.skip)})
		if err != nil {
			t.Fatal(err)
		}
		m := plan.Options().Machine
		if m.Fused() != v.fused || m.SkipAhead() != (v.fused && v.skip) {
			t.Errorf("SetFastPath(%v, %v): plan runs fused=%v skip-ahead=%v",
				v.fused, v.skip, m.Fused(), m.SkipAhead())
		}
	}
}

// TestConvertWorkersDefaultFollowsDevice: the default convert pool is
// no wider than the device, so a one-worker device parses
// single-threaded throughout.
func TestConvertWorkersDefaultFollowsDevice(t *testing.T) {
	plan, err := Compile(Options{Device: device.New(device.Config{Workers: 1})})
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Options().ConvertWorkers; got != 1 {
		t.Errorf("ConvertWorkers = %d on a one-worker device, want 1", got)
	}
}
