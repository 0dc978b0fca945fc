// Package parparaw is a Go implementation of ParPaRaw (Stehle &
// Jacobsen, VLDB 2020): a massively parallel algorithm for parsing
// delimiter-separated raw data.
//
// Unlike chunk-splitting parsers, ParPaRaw determines every chunk's
// parsing context — whether a comma is a delimiter or part of a quoted
// string, which record and column each symbol belongs to — without any
// sequential pass over the input. Each chunk simulates one DFA instance
// per possible starting state, producing a state-transition vector; an
// exclusive prefix scan under vector composition then yields every
// chunk's true starting state. Subsequent data-parallel passes work out
// each symbol's record and column, partition the symbols into per-column
// concatenated symbol strings (the paper's tag and stable radix
// partition, fused here into a count pass and a move pass over tiles),
// and convert field strings into typed, Arrow-style columnar output.
//
// The paper's substrate is a CUDA GPU; this implementation executes the
// same kernels on a simulated massively parallel device scheduled across
// OS threads, and models the PCIe interconnect for the end-to-end
// streaming mode. See DESIGN.md for the full substitution table.
//
// # Quick start
//
//	engine, err := parparaw.NewEngine(parparaw.Options{HasHeader: true})
//	if err != nil { ... }
//	table, err := engine.Parse(csvBytes) // reusable, safe for concurrent callers
//	if err != nil { ... }
//	col := table.Table.ColumnByName("fare_amount")
//	for i := 0; i < col.Len(); i++ {
//		if !col.IsNull(i) {
//			total += col.Float64(i)
//		}
//	}
package parparaw

import (
	"time"

	"repro/internal/core"
	"repro/internal/css"
	"repro/internal/device"
	"repro/internal/utfx"
)

// TaggingMode selects the representation used to associate symbols with
// their records during partitioning (§4.1).
type TaggingMode int

const (
	// RecordTagged attaches a 4-byte record tag to every symbol. It is
	// the robust default, resilient even to records with varying column
	// counts, at the cost of extra memory traffic.
	RecordTagged TaggingMode = iota
	// InlineTerminated replaces delimiters with an in-band terminator
	// byte in the column data — faster, but requires that the terminator
	// never occur in field values.
	InlineTerminated
	// VectorDelimited marks field boundaries in an auxiliary boolean
	// vector — the fast mode that tolerates arbitrary field bytes.
	VectorDelimited
)

// String names the mode as in the paper's Figure 11 series.
func (m TaggingMode) String() string {
	switch m {
	case InlineTerminated:
		return "inline"
	case VectorDelimited:
		return "delimited"
	default:
		return "tagged"
	}
}

// Options configure a parse. The zero value parses RFC 4180 CSV with
// inferred column types on a default device using all CPUs.
type Options struct {
	// Format holds the parsing rules. Nil uses DefaultFormat (RFC 4180).
	Format *Format
	// Schema fixes the output column names and types. Nil infers types
	// from the data and names columns col0..colN (or from the header).
	Schema *Schema
	// HasHeader derives column names from the input. Delimiter formats
	// (CSV, TSV/PSV, FormatBuilder grammars) consume the first record as
	// the names. Self-describing formats derive names without consuming
	// anything: JSONL names columns from the first record's keys (the
	// key column "<key>_key", the value column "<key>"; the record still
	// parses as data), and the weblog format reads the "#Fields:"
	// directive (directive lines never appear in the output anyway).
	HasHeader bool
	// Mode selects the tagging representation (§4.1).
	Mode TaggingMode
	// ChunkSize is the bytes of input per data-parallel chunk. 0 uses
	// 1024 bytes on a real device, where every chunk's fixed cost is paid
	// by one CPU core, and the paper's best-performing 31 bytes (§5.1) in
	// modelled-time mode (VirtualWorkers > 0).
	ChunkSize int
	// Workers bounds the simulated device's parallelism. 0 uses all
	// available CPUs.
	Workers int
	// VirtualWorkers, when positive, switches the device to
	// modelled-time mode: results are identical, but Stats.Phases and
	// Stats.DeviceTime report the time the parse would have taken on a
	// device with that many cores (per-block costs are measured and
	// list-scheduled onto the virtual cores). This is the reproduction
	// substitute for the paper's 3 584-core GPU on hosts with few CPUs.
	VirtualWorkers int
	// InFlight is the depth of the streaming ring (§4.4 extended across
	// partitions): the number of partitions parsed concurrently, each
	// running the whole kernel pipeline on its own device arena, while a
	// record-boundary pre-scan finalises partition i+1's input without
	// waiting for partition i's parse and an emit stage releases tables
	// in input order. 0 uses a GOMAXPROCS-derived default; 1 parses one
	// partition at a time on one recycled arena, still overlapping its
	// transfers with the neighbouring parses (Figure 7). Output is
	// byte-identical at every setting; only Parse paths that stream
	// (Stream, StreamReader, large ParseReader inputs) are affected. In
	// modelled-time mode (VirtualWorkers) the ring is forced to 1,
	// matching the paper's serialised schedule.
	InFlight int
	// SkipRows prunes the first n raw lines before parsing (§4.3).
	SkipRows int
	// SelectColumns keeps only the listed column indices, in the given
	// order (§4.3 "Skipping records and selecting columns"). Nil keeps
	// all columns.
	SelectColumns []int
	// SkipRecords drops the listed record indices (0-based, ascending).
	SkipRecords []int64
	// Scan pushes a projection (Select) and row predicates (Where) into
	// the parse plan, so dropped columns and rejected rows are pruned
	// before the partition and convert stages instead of after
	// materialisation. See ScanOptions.
	Scan ScanOptions
	// ExpectedColumns fixes the input's column count; 0 infers it (§4.3).
	ExpectedColumns int
	// RejectInconsistent rejects records whose column count deviates
	// from the expected/inferred count instead of padding with NULLs.
	RejectInconsistent bool
	// RejectMalformed rejects records with unparseable field values
	// instead of storing NULL for the offending fields.
	RejectMalformed bool
	// DefaultValues maps column index to the textual value applied to
	// empty fields (§4.3 "Default values for empty strings").
	DefaultValues map[int]string
	// Validate fails the parse on invalid input or a non-accepting end
	// state (§4.3 "Validating format"); otherwise Stats.InvalidInput
	// records the condition.
	Validate bool
	// Encoding declares the input's symbol encoding (§4.2). ASCII (the
	// zero value) and UTF8 inputs parse directly — multi-byte UTF-8
	// sequences are plain data bytes for formats whose control symbols
	// are ASCII. UTF16LE and UTF16BE inputs are transcoded to UTF-8 on
	// the device first (a data-parallel count → scan → emit pass whose
	// chunk boundaries are resolved with the §4.2 surrogate rule); the
	// cost appears as the "transcode" phase in Stats.Phases.
	Encoding Encoding
	// DetectEncoding sniffs a byte-order mark, sets Encoding
	// accordingly, and strips the BOM before parsing.
	DetectEncoding bool
}

// Encoding identifies the input's symbol encoding (§4.2).
type Encoding int

const (
	// ASCII covers any 8-bit encoding whose control symbols are single
	// bytes — including raw UTF-8 when no BOM handling is needed.
	ASCII Encoding = iota
	// UTF8 is UTF-8 with multi-byte content symbols.
	UTF8
	// UTF16LE is little-endian UTF-16.
	UTF16LE
	// UTF16BE is big-endian UTF-16.
	UTF16BE
)

// internal maps the public encoding to the pipeline's representation.
func (e Encoding) internal() utfx.Encoding {
	switch e {
	case UTF8:
		return utfx.UTF8
	case UTF16LE:
		return utfx.UTF16LE
	case UTF16BE:
		return utfx.UTF16BE
	default:
		return utfx.ASCII
	}
}

// Stats describes a completed parse.
type Stats struct {
	// InputBytes is the byte count parsed (after row skipping and header
	// consumption).
	InputBytes int64
	// Chunks is the number of data-parallel chunks.
	Chunks int
	// Records and Columns are the output dimensions.
	Records int64
	Columns int
	// MinColumns and MaxColumns are the observed per-record column
	// counts before selection.
	MinColumns, MaxColumns int
	// InvalidInput reports a DFA-detected format violation (only set
	// when Options.Validate is false).
	InvalidInput bool
	// RowsPruned is the number of rows rejected by Options.Scan.Where.
	// Records counts only the surviving rows.
	RowsPruned int64
	// BytesSkipped is the number of symbol bytes the partition scatter
	// never moved: structural bytes (delimiters, quotes) plus everything
	// projection or predicate pushdown made irrelevant (unselected
	// columns, pruned rows). Higher is better: it is input volume the
	// device only had to index, not move.
	BytesSkipped int64
	// Phases maps each pipeline phase (parse, scan, tag, partition,
	// convert) to its device time — the Figure 9 breakdown. Every parse
	// times its own kernel launches on a private timer, so concurrent
	// parses on one device (an Engine shared by goroutines, or several
	// Engines on the default device) never count each other's launches.
	// Launches within one parse run one after another, except the
	// convert phase's columns, which a pool of up to Workers goroutines
	// converts concurrently; so outside modelled-time mode, with
	// Workers: 1, the phases sum to at most Duration. In modelled-time
	// mode (Options.VirtualWorkers) these are the modelled durations on
	// the virtual device, launch overhead included, and their sum may
	// exceed Duration.
	Phases map[string]time.Duration
	// DeviceTime is the total device time across all phases (the
	// CUDA-event-sum analogue; modelled when VirtualWorkers is set).
	DeviceTime time.Duration
	// Duration is the wall-clock time of the parse.
	Duration time.Duration
	// DeviceBytes is the peak device-memory footprint of the parse: the
	// high-water mark of the arena all pipeline kernels draw their
	// buffers from.
	DeviceBytes int64
}

// Throughput returns the parse rate in bytes per second.
func (s Stats) Throughput() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.InputBytes) / s.Duration.Seconds()
}

// Result is a completed parse.
type Result struct {
	// Table is the columnar output.
	Table *Table
	// Header holds the column names consumed from the input's header
	// record when Options.HasHeader was set.
	Header []string
	// Stats describes the run.
	Stats Stats
}

// PhaseNames lists the pipeline phases in execution order: parse, scan,
// tag, partition, convert (§3; the series of Figure 9).
var PhaseNames = core.PhaseNames

// Parse parses delimiter-separated input into a columnar table using
// the massively parallel pipeline of §3. The entire input is processed
// on-device; for inputs that should be streamed through bounded memory
// with overlapped transfers, use StreamReader. Every Parse call
// compiles its options from scratch — callers parsing repeatedly with
// one configuration (or serving concurrent callers) should construct an
// Engine once and use Engine.Parse.
func Parse(input []byte, opts Options) (*Result, error) {
	copts, err := opts.internal(core.TrailingRecord)
	if err != nil {
		return nil, err
	}
	res, err := core.Parse(input, copts)
	if err != nil {
		return nil, err
	}
	return wrapResult(res), nil
}

func wrapResult(res *core.Result) *Result {
	var deviceTime time.Duration
	for _, d := range res.Stats.Phases {
		deviceTime += d
	}
	return &Result{
		Table:  &Table{t: res.Table},
		Header: res.Header,
		Stats: Stats{
			InputBytes:   res.Stats.InputBytes,
			Chunks:       res.Stats.Chunks,
			Records:      res.Stats.Records,
			Columns:      res.Stats.Columns,
			MinColumns:   res.Stats.MinColumns,
			MaxColumns:   res.Stats.MaxColumns,
			InvalidInput: res.Stats.InvalidInput,
			RowsPruned:   res.Stats.RowsPruned,
			BytesSkipped: res.Stats.BytesSkipped,
			Phases:       res.Stats.Phases,
			DeviceTime:   deviceTime,
			Duration:     res.Stats.Duration,
			DeviceBytes:  res.Stats.DeviceBytes,
		},
	}
}

func (o Options) internal(trailing core.TrailingMode) (core.Options, error) {
	selected := o.SelectColumns
	if o.Scan.Select != nil {
		if o.SelectColumns != nil {
			return core.Options{}, errSelectConflict
		}
		selected = o.Scan.Select
	}
	copts := core.Options{
		ChunkSize:          o.ChunkSize,
		Schema:             o.Schema.internal(),
		HasHeader:          o.HasHeader,
		SkipRows:           o.SkipRows,
		SelectColumns:      selected,
		Where:              o.Scan.internalWhere(),
		SkipRecords:        o.SkipRecords,
		ExpectedColumns:    o.ExpectedColumns,
		RejectInconsistent: o.RejectInconsistent,
		RejectMalformed:    o.RejectMalformed,
		DefaultValues:      o.DefaultValues,
		Validate:           o.Validate,
		Trailing:           trailing,
		DetectEncoding:     o.DetectEncoding,
		InFlight:           o.InFlight,
	}
	copts.Encoding = o.Encoding.internal()
	if o.Format != nil {
		copts.Machine = o.Format.m
	}
	switch o.Mode {
	case InlineTerminated:
		copts.Mode = css.InlineTerminated
	case VectorDelimited:
		copts.Mode = css.VectorDelimited
	default:
		copts.Mode = css.RecordTagged
	}
	if o.Workers > 0 || o.VirtualWorkers > 0 {
		copts.Device = device.New(device.Config{Workers: o.Workers, VirtualWorkers: o.VirtualWorkers})
	}
	return copts, nil
}
