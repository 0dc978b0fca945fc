package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"unicode/utf16"

	"repro/internal/device"
	"repro/internal/dfa"
	"repro/internal/utfx"
	"repro/internal/workload"
	"repro/parparawerr"
)

// escapedRecords is a TSV (delim '\t') or PSV (delim '|') input whose
// fields carry escaped delimiters, escaped newlines and escaped
// escapes, so a cut can land inside an escape.
func escapedRecords(delim byte, n int) []byte {
	var sb strings.Builder
	for r := 0; r < n; r++ {
		fmt.Fprintf(&sb, "%d%cname\\%c%d%cline\\\nbreak\\\\%c%s\n",
			r, delim, delim, r, delim, delim, strings.Repeat("v", r%23))
	}
	return []byte(sb.String())
}

// publishedRemainder executes plan over input with exec and the
// callback connected, and returns the result and every published value.
func publishedRemainder(t *testing.T, plan *Plan, input []byte, exec Exec) (*Result, []int, error) {
	t.Helper()
	var got []int
	exec.OnRemainder = func(rem int) { got = append(got, rem) }
	res, err := plan.Execute(input, exec)
	return res, got, err
}

// TestOnRemainderPublishesOnce pins the emit stage's published
// boundary: in TrailingRemainder mode it fires exactly once, with the
// remainder Result.Remainder carries (and RecordRemainder's walk
// finds), for every dialect at chunk sizes that split escapes, quotes
// and CRLFs across chunks, on inputs cut mid-record.
func TestOnRemainderPublishesOnce(t *testing.T) {
	tsv, err := dfa.NewEscaped(dfa.EscapedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	psv, err := dfa.NewEscaped(dfa.EscapedOptions{FieldDelim: '|'})
	if err != nil {
		t.Fatal(err)
	}
	jsonl, err := dfa.NewJSONL(dfa.JSONLOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dialects := []struct {
		name string
		m    *dfa.Machine
		in   []byte
	}{
		{"csv", dfa.RFC4180(), workload.Yelp().Generate(12<<10, 3)},
		{"tsv", tsv, escapedRecords('\t', 200)},
		{"psv", psv, escapedRecords('|', 200)},
		{"jsonl", jsonl, workload.JSONLines().Generate(12<<10, 4)},
		{"weblog", dfa.Weblog(), workload.Weblog().Generate(12<<10, 5)},
	}
	d := device.New(device.Config{Workers: 4})
	for _, dl := range dialects {
		for _, chunk := range []int{1, 7, 31, 1024} {
			plan, err := Compile(Options{Device: d, Machine: dl.m, ChunkSize: chunk})
			if err != nil {
				t.Fatal(err)
			}
			n := len(dl.in)
			for _, cut := range []int{n, n - 1, n / 2, n/3 + 7, 5, 0} {
				name := fmt.Sprintf("%s/chunk=%d/cut=%d", dl.name, chunk, cut)
				in := dl.in[:cut]
				exec := plan.BaseExec(device.NewArena())
				exec.Trailing = TrailingRemainder
				res, got, err := publishedRemainder(t, plan, in, exec)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(got) != 1 || got[0] != res.Remainder {
					t.Fatalf("%s: published %v, want exactly [%d] (Result.Remainder)", name, got, res.Remainder)
				}
				if walk := dl.m.RecordRemainder(in); walk != res.Remainder {
					t.Fatalf("%s: remainder %d, RecordRemainder walk %d", name, res.Remainder, walk)
				}
			}
		}
	}
}

// TestOnRemainderSilent pins where the callback must not fire: a
// TrailingRecord run (the final partition, which has no successor),
// UTF-16 input (its remainder is mapped back to raw bytes only after
// the kernels), and runs that fail before the emit stage: a DFA that
// ends in the invalid state under Validate, and a canceled context.
func TestOnRemainderSilent(t *testing.T) {
	input := workload.Yelp().Generate(8<<10, 7)
	cut := input[:len(input)-9]
	plan, err := Compile(Options{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	var units []byte
	for _, u := range utf16.Encode([]rune(string(cut))) {
		units = append(units, byte(u), byte(u>>8))
	}
	for _, tc := range []struct {
		name    string
		in      []byte
		trail   TrailingMode
		enc     utfx.Encoding
		ctx     context.Context
		wantErr error
	}{
		{"trailing-record", input, TrailingRecord, utfx.UTF8, nil, nil},
		{"utf16", units, TrailingRemainder, utfx.UTF16LE, nil, nil},
		{"invalid-dfa", append([]byte(`a,"b"x`+"\n"), cut...), TrailingRemainder, utfx.UTF8, nil, parparawerr.ErrMalformed},
		{"canceled", cut, TrailingRemainder, utfx.UTF8, canceled, parparawerr.ErrCanceled},
	} {
		exec := plan.BaseExec(device.NewArena())
		exec.Trailing, exec.Encoding, exec.Ctx = tc.trail, tc.enc, tc.ctx
		res, got, err := publishedRemainder(t, plan, tc.in, exec)
		if !errors.Is(err, tc.wantErr) || (tc.wantErr == nil) != (err == nil) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.wantErr)
		}
		if len(got) != 0 {
			t.Fatalf("%s: published %v, want nothing", tc.name, got)
		}
		if tc.name == "utf16" && res.Remainder == 0 {
			t.Fatalf("%s: no remainder on an input cut mid-record", tc.name)
		}
	}
}
