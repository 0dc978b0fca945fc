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
// OS threads. The streaming mode moves partitions through host memory;
// only the Figure 12/13 experiments price the PCIe transfers the paper
// overlaps, with a cost model. See DESIGN.md for the full substitution
// table.
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
	"repro/internal/core"
	"repro/internal/css"
	"repro/internal/device"
	"repro/internal/utfx"
)

// TaggingMode selects the representation used to associate symbols with
// their records during partitioning (§4.1). Unlike in the paper, the
// default is also the fastest mode here: parsing 4 MiB with a fixed
// schema on a 2-vCPU Xeon (GOMAXPROCS=2) gave, in MB/s, tagged /
// inline / delimited: taxi 117 / 79 / 77, yelp 337 / 286 / 268.
type TaggingMode int

const (
	// RecordTagged stands for the paper's 4-byte record tag per symbol
	// with each field's input start and data length, which the partition
	// phase writes when it reaches the delimiter that ends the field. No
	// data moves: the columns are converted from the input, and only a
	// column holding a field of several data runs (an escaped quote) is
	// gathered into a buffer of its own. It is the robust default,
	// resilient even to records with varying column counts.
	RecordTagged TaggingMode = iota
	// InlineTerminated replaces delimiters with an in-band terminator
	// byte in the column data. It requires that the terminator never
	// occur in field values and a constant column count.
	InlineTerminated
	// VectorDelimited marks field boundaries in an auxiliary bit
	// vector. It tolerates arbitrary field bytes but requires a constant
	// column count.
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
	// Stats.DeviceTime() report the time the parse would have taken on a
	// device with that many cores (per-block costs are measured and
	// list-scheduled onto the virtual cores). This is the reproduction
	// substitute for the paper's 3 584-core GPU on hosts with few CPUs.
	VirtualWorkers int
	// InFlight is the depth of the streaming ring (§4.4 extended across
	// partitions): the number of partitions parsed concurrently, each
	// running the whole kernel pipeline on its own device arena, while
	// the record boundary partition i's parse publishes from its emit
	// stage finalises partition i+1's input before partition i's parse
	// ends, and an emit stage releases tables in input order. 0 uses a GOMAXPROCS-derived default; 1 parses one
	// partition at a time on one recycled arena, still overlapping the
	// read of the next partition with its parse (Figure 7). Output is
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
	// The indices count records of the whole input, so only a
	// whole-input parse applies them: StreamReader and Stream refuse
	// such options (ErrConfig), and ParseReader buffers the input and
	// parses it in one shot at any size.
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

// Stats counts a run — a parse, a streamed run, or several runs folded
// with Stats.Add — and is the one counters type of every entry point:
// Parse, the streaming calls, ParseReader on both routes and the
// daemon's /metrics totals. A parse fills the per-parse fields
// (InputBytes, Chunks, ReemittedChunks, Records, Columns, MinColumns,
// MaxColumns, InvalidInput, RowsPruned, BytesSkipped,
// QuarantinedRecords, Phases, DeviceBytes, Duration); a streamed run
// folds its partitions' Stats
// and adds the ring's own counters (Partitions, InFlight, MaxCarryOver,
// SerialFallbacks, Retries, RetriedBytes, QuarantinedPartitions,
// OutputBytes and the stage busy times). DeviceTime() sums Phases and
// Throughput() is InputBytes per second of Duration.
type Stats = core.Stats

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
// on-device; for inputs that should be streamed through bounded memory,
// partition by partition, use StreamReader. Every Parse call
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
	return &Result{Table: &Table{t: res.Table}, Header: res.Header, Stats: res.Stats}, nil
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
