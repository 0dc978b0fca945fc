package parparaw

// Reader-vs-slice parity: StreamReader must produce cell-for-cell the
// same tables as Parse on the concatenated input, for every tagging
// mode, for UTF-16 content, and for partition sizes that split records,
// quoted fields, code units, and surrogate pairs — while never reading
// more than one partition's worth of bytes at a time from the source.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/parparawerr"
)

// maxReadReader asserts the pipeline pulls input in bounded chunks: any
// single Read asking for more than limit bytes fails the test, which is
// exactly what an io.ReadAll-style slurp would do.
type maxReadReader struct {
	t     *testing.T
	r     io.Reader
	limit int
}

func (m *maxReadReader) Read(p []byte) (int, error) {
	if len(p) > m.limit {
		m.t.Errorf("read of %d bytes exceeds the %d-byte partition bound (input slurped?)", len(p), m.limit)
	}
	return m.r.Read(p)
}

// shortReadReader yields at most k bytes per Read, in a rotating
// pattern, exercising partial reads the way sockets do.
type shortReadReader struct {
	r io.Reader
	k int
	i int
}

func (s *shortReadReader) Read(p []byte) (int, error) {
	s.i++
	n := s.i%s.k + 1
	if n < len(p) {
		p = p[:n]
	}
	return s.r.Read(p)
}

func assertTablesEqual(t *testing.T, label string, got, want *Table) {
	t.Helper()
	g, w := tableRows(got), tableRows(want)
	if len(g) != len(w) {
		t.Fatalf("%s: rows = %d, want %d", label, len(g), len(w))
	}
	if got.NumColumns() != want.NumColumns() {
		t.Fatalf("%s: columns = %d, want %d", label, got.NumColumns(), want.NumColumns())
	}
	for r := range w {
		if g[r] != w[r] {
			t.Fatalf("%s: row %d = %q, want %q", label, r, g[r], w[r])
		}
	}
}

func TestStreamReaderParityAcrossModes(t *testing.T) {
	var quoted bytes.Buffer
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&quoted, "%d,\"quoted, with\nnewline %d\",%d.25\n", i, i, i)
	}
	var utf16 strings.Builder
	for i := 0; i < 40; i++ {
		utf16.WriteString("héllo,wörld 🚀,42\nπ,🚕taxi,7\n")
	}

	cases := []struct {
		name  string
		data  []byte
		opts  Options
		modes []TaggingMode
	}{
		{name: "quoted", data: quoted.Bytes(), modes: []TaggingMode{RecordTagged, InlineTerminated, VectorDelimited}},
		// Odd partition sizes split UTF-16 code units and surrogate
		// pairs across partitions; the raw-byte carry-over must heal
		// them.
		{name: "utf16", data: encodeUTF16LE(utf16.String(), false), opts: Options{Encoding: UTF16LE}, modes: []TaggingMode{RecordTagged, VectorDelimited}},
		{name: "utf16-bom", data: encodeUTF16LE(utf16.String(), true), opts: Options{DetectEncoding: true}, modes: []TaggingMode{RecordTagged}},
	}

	// 7 splits everything (records, quotes, surrogate pairs); 64 and
	// 1021 split records; the last size exceeds the input (single
	// partition).
	partSizes := []int{7, 64, 1021, 1 << 20}

	for _, tc := range cases {
		whole, err := Parse(tc.data, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range tc.modes {
			for _, ps := range partSizes {
				t.Run(fmt.Sprintf("%s/%s/part=%d", tc.name, mode, ps), func(t *testing.T) {
					opts := tc.opts
					opts.Mode = mode
					src := &maxReadReader{t: t, r: bytes.NewReader(tc.data), limit: ps}
					res, err := StreamReader(src, StreamOptions{
						Options:      opts,
						StreamConfig: StreamConfig{PartitionSize: ps},
					})
					if err != nil {
						t.Fatal(err)
					}
					combined, err := res.Combined()
					if err != nil {
						t.Fatal(err)
					}
					assertTablesEqual(t, "streamed", combined, whole.Table)
					// A detected byte-order mark (up to 3 bytes) is
					// stripped before the pipeline and not counted.
					if res.Stats.InputBytes < int64(len(tc.data))-3 || res.Stats.InputBytes > int64(len(tc.data)) {
						t.Errorf("InputBytes = %d, want ~%d", res.Stats.InputBytes, len(tc.data))
					}
				})
			}
		}
	}
}

// TestStreamReaderTinyFirstPartition drives partitions far smaller than
// the header record plus skipped rows: the first-partition handling
// must keep carrying input until the header and a complete record fit,
// instead of consuming a mangled partial header or freezing an empty
// schema.
func TestStreamReaderTinyFirstPartition(t *testing.T) {
	var sb bytes.Buffer
	sb.WriteString("# generated\n")
	sb.WriteString("alpha,beta,gamma\n")
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&sb, "%d,\"v %d\",%d.5\n", i, i, i)
	}
	input := sb.Bytes()
	opts := Options{HasHeader: true, SkipRows: 1}

	whole, err := Parse(input, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, ps := range []int{3, 5, 11} {
		res, err := StreamReader(bytes.NewReader(input), StreamOptions{
			Options:      opts,
			StreamConfig: StreamConfig{PartitionSize: ps},
		})
		if err != nil {
			t.Fatalf("part=%d: %v", ps, err)
		}
		if strings.Join(res.Header, ",") != "alpha,beta,gamma" {
			t.Fatalf("part=%d: header = %v", ps, res.Header)
		}
		combined, err := res.Combined()
		if err != nil {
			t.Fatal(err)
		}
		assertTablesEqual(t, fmt.Sprintf("part=%d", ps), combined, whole.Table)
	}
}

// TestStreamReaderShortReads feeds the pipeline through a reader that
// returns a few bytes per call: partial reads must not change the
// partition boundaries or the output.
func TestStreamReaderShortReads(t *testing.T) {
	var sb bytes.Buffer
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "%d,text %d,%d.75\n", i, i, i)
	}
	input := sb.Bytes()
	whole, err := Parse(input, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := StreamReader(&shortReadReader{r: bytes.NewReader(input), k: 13}, StreamOptions{
		StreamConfig: StreamConfig{PartitionSize: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Partitions < 4 {
		t.Fatalf("partitions = %d, want several", res.Stats.Partitions)
	}
	combined, err := res.Combined()
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, "short-reads", combined, whole.Table)
}

// TestStreamReaderCommentHeavyInput streams a file whose comment lines
// vastly outnumber data records (comment newlines leave no record
// footprint in the DFA): the output must match Parse.
func TestStreamReaderCommentHeavyInput(t *testing.T) {
	f := NewCSV(CSV{Delimiter: ',', Comment: '#'})
	var sb bytes.Buffer
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&sb, "# comment line %d\n", i)
		if i%10 == 0 {
			fmt.Fprintf(&sb, "%d,%d\n", i, i*2)
		}
	}
	input := sb.Bytes()
	whole, err := Parse(input, Options{Format: f})
	if err != nil {
		t.Fatal(err)
	}
	res, err := StreamReader(bytes.NewReader(input), StreamOptions{
		Options:      Options{Format: f},
		StreamConfig: StreamConfig{PartitionSize: 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	combined, err := res.Combined()
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, "comment-heavy", combined, whole.Table)
}

// TestStreamReaderRowlessPrefixBoundedCarry drives a first partition
// whose complete records are all dropped (by a Where predicate): those
// completed rowless records must be consumed, not carried — the
// carry-over stays bounded instead of accumulating the whole prefix
// (the larger-than-memory contract).
func TestStreamReaderRowlessPrefixBoundedCarry(t *testing.T) {
	input := append(bytes.Repeat([]byte("x\n"), 1000), bytes.Repeat([]byte("y\n"), 1000)...)
	const partSize = 64
	opts := Options{}
	opts.Scan.Where = []Predicate{Eq(0, "y")}
	res, err := StreamReader(bytes.NewReader(input), StreamOptions{
		Options:      opts,
		StreamConfig: StreamConfig{PartitionSize: partSize},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxCarryOver > 4*partSize {
		t.Fatalf("max carry-over = %d for a rowless prefix; completed records are being re-carried",
			res.Stats.MaxCarryOver)
	}
	if res.Stats.Records != 1000 {
		t.Fatalf("streamed %d records, want the 1000 the predicate keeps", res.Stats.Records)
	}
}

// TestSkipRecordsWholeInputOnly pins that SkipRecords, whose indices
// count records of the whole input, is applied only by whole-input
// parses: StreamReader refuses it with ErrConfig before reading (each
// partition would otherwise skip its own local record indices), and
// ParseReader parses an input above ReaderStreamThreshold in one shot,
// matching Parse.
func TestSkipRecordsWholeInputOnly(t *testing.T) {
	var sb bytes.Buffer
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, "%d,v%d\n", i, i)
	}
	input := sb.Bytes()
	opts := Options{SkipRecords: []int64{0, 1}}
	whole, err := Parse(input, opts)
	if err != nil {
		t.Fatal(err)
	}
	if whole.Table.NumRows() != 38 {
		t.Fatalf("Parse kept %d rows, want 38", whole.Table.NumRows())
	}

	r := bytes.NewReader(input)
	_, err = StreamReader(r, StreamOptions{
		Options:      opts,
		StreamConfig: StreamConfig{PartitionSize: 64},
	})
	var ce *parparawerr.ConfigError
	if !errors.Is(err, ErrConfig) || !errors.As(err, &ce) {
		t.Fatalf("StreamReader with SkipRecords: error %v (%T), want a ConfigError", err, err)
	}
	if r.Len() != len(input) {
		t.Fatalf("StreamReader read %d bytes before refusing SkipRecords", len(input)-r.Len())
	}

	defer func(old int) { ReaderStreamThreshold = old }(ReaderStreamThreshold)
	ReaderStreamThreshold = 64
	res, err := ParseReader(bytes.NewReader(input), opts)
	if err != nil {
		t.Fatalf("ParseReader with SkipRecords above the stream threshold: %v", err)
	}
	assertTablesEqual(t, "ParseReader", res.Table, whole.Table)
}

// TestStreamReaderReportsInvalidInput checks the non-erroring
// validation signal survives the streaming route — including through
// ParseReader's above-threshold path.
func TestStreamReaderReportsInvalidInput(t *testing.T) {
	var sb bytes.Buffer
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "%d,ok\n", i)
	}
	sb.WriteString("bad\"quote\n")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "%d,ok\n", i)
	}
	input := sb.Bytes()

	res, err := StreamReader(bytes.NewReader(input), StreamOptions{
		StreamConfig: StreamConfig{PartitionSize: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.InvalidInput {
		t.Error("StreamReader did not flag the invalid partition")
	}

	defer func(old int) { ReaderStreamThreshold = old }(ReaderStreamThreshold)
	ReaderStreamThreshold = 512
	pres, err := ParseReader(bytes.NewReader(input), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !pres.Stats.InvalidInput {
		t.Error("ParseReader's streamed route dropped Stats.InvalidInput")
	}
}

// TestStreamReaderEmptyAndHeaderOnly covers the degenerate inputs a
// service sees: empty sources and sources containing only a header.
func TestStreamReaderEmptyAndHeaderOnly(t *testing.T) {
	res, err := StreamReader(strings.NewReader(""), StreamOptions{
		StreamConfig: StreamConfig{PartitionSize: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 0 {
		t.Errorf("empty input rows = %d", res.NumRows())
	}

	res, err = StreamReader(strings.NewReader("a,b\n"), StreamOptions{
		Options:      Options{HasHeader: true},
		StreamConfig: StreamConfig{PartitionSize: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(res.Header, ",") != "a,b" {
		t.Errorf("header = %v", res.Header)
	}
	if res.NumRows() != 0 {
		t.Errorf("header-only rows = %d", res.NumRows())
	}
}
