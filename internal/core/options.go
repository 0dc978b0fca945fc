// Package core orchestrates ParPaRaw's full parsing pipeline (§3):
//
//	parse     multi-DFA state-transition vectors per chunk, packed into
//	          one 64-bit word each, then a single DFA pass emitting the
//	          record/field/control bitmap indexes. On a real device with
//	          fused tables one walk per chunk does both, emitting from a
//	          guessed start state, and the second pass re-walks only
//	          the chunks the scan proves were guessed wrong
//	scan      start-state scan over the packed vectors, carrying the one
//	          true start state through tiles of chunks, and the in-place
//	          record/column offset scans
//	tag       counting, per tile of the input, the symbols each output
//	          column receives (the count pass of the tag-scatter); in
//	          RecordTagged mode nothing, so the phase reads 0
//	partition in RecordTagged mode, the index walk: every kept field's
//	          input start and data length, written once at the
//	          delimiter that ends it; in the inline and vector modes,
//	          moving every kept data run straight into its column's
//	          concatenated symbol string, with the inline terminators
//	          or the delimiter bitmap
//	convert   CSS index construction (for RecordTagged, a view of the
//	          field index, with a gathered CSS only for a column holding
//	          a field of several data runs) and typed columnar
//	          materialisation
//
// These five phase names match the series of Figure 9 and Figure 11,
// which, like the ablation, print the RecordTagged tag phase as 0.
package core

import (
	"runtime"

	"repro/internal/columnar"
	"repro/internal/convert"
	"repro/internal/css"
	"repro/internal/device"
	"repro/internal/dfa"
	"repro/internal/utfx"
)

// DefaultChunkSize is the default bytes per chunk on a real
// (wall-clock) device. On a CPU core every chunk pays fixed costs — a
// transition-vector word, a start state, chunk metadata, its boundary
// bitmap words, a skip-ahead run cut short at its end — so the default
// is 1 KiB: a multiple of 64, so every chunk owns whole bitmap words.
// DESIGN.md "CPU-sized chunks" holds the sweep behind the number.
const DefaultChunkSize = 1024

// PaperChunkSize is the default bytes per chunk on a modelled-time
// device, which stands in for the paper's GPU: 31 bytes is the
// best-performing configuration of the paper's evaluation (§5.1: "The
// best performance is achieved for 31 bytes per chunk"), where a GPU
// thread's parsing state stays in registers.
const PaperChunkSize = 31

// Options configure a parse run. The zero value parses RFC 4180 CSV with
// inferred types on a default device.
type Options struct {
	// Machine is the parsing-rules DFA. Nil uses dfa.RFC4180(). Whether
	// the kernels run its fused tables and skip-ahead is a property of
	// the machine (dfa.Machine.SetFastPath), not an option.
	Machine *dfa.Machine
	// Device executes the data-parallel kernels. Nil uses a process-wide
	// default device.
	Device *device.Device
	// Arena supplies the run's device memory: every transient pipeline
	// buffer is drawn from it instead of the Go heap. Nil uses a fresh
	// arena for the run. Callers that parse repeatedly — above all the
	// streaming pipeline — should pass one arena and Reset it between
	// runs, so steady-state runs recycle the first run's buffers and the
	// device footprint stays fixed (§4.4). The arena must not be reset
	// while a run is in flight.
	Arena *device.Arena
	// ChunkSize is the bytes per chunk (Figure 9's x-axis). 0 means
	// DefaultChunkSize on a real device and PaperChunkSize on a
	// modelled-time one.
	ChunkSize int
	// Mode selects the tagging representation (§4.1). RecordTagged (the
	// zero value) is robust to records with varying column counts and
	// is the fastest: the partition phase writes each field's input
	// start and length and moves no data, and convert reads the fields
	// in place. InlineTerminated and VectorDelimited require a
	// consistent column count, move every kept byte into their CSSs and
	// index them by two passes over the column data (on 4 MiB at two
	// cores, taxi 77–79 MB/s against tagged 117, yelp 268–286 against
	// 337).
	Mode css.Mode
	// Terminator is the in-band terminator byte for InlineTerminated
	// mode. 0 means css.DefaultTerminator. It must not occur in field
	// data.
	Terminator byte
	// Schema fixes the output schema (names and types). Nil infers types
	// (§4.3) and names the columns col0..colN.
	Schema *columnar.Schema
	// HasHeader consumes the first record as column names. With a nil
	// Schema, the names come from the header and types are inferred.
	HasHeader bool
	// SkipRows prunes the first n rows (raw lines) before parsing, the
	// initial pruning pass of §4.3 ("Skipping rows"). Rows are split on
	// the machine's record-delimiter byte without context, which is the
	// paper's definition of a row (as opposed to a record).
	SkipRows int
	// SelectColumns keeps only the listed column indices (in the given
	// order) and marks all other symbols irrelevant before partitioning
	// (§4.3 "Skipping records and selecting columns"). Nil keeps all.
	SelectColumns []int
	// SkipRecords drops the listed record indices (0-based, pre-skip
	// numbering, sorted ascending) from the output.
	SkipRecords []int64
	// Where lists raw-byte row predicates (conjunction): rows failing any
	// predicate are excluded from the output. With a fixed Schema the
	// pipeline prunes failing rows before the partition and convert
	// stages (predicate pushdown), so they never materialise; with an
	// inferred schema — where types must be inferred from the full input
	// — and under NoPushdown, the same predicate set is evaluated at the
	// same point but the pruning is applied to the materialised table
	// instead. Output is byte-identical either way.
	Where []convert.Predicate
	// NoPushdown forces the post-materialisation pruning path for Where
	// even when a Schema is present — the pushdown-on/off ablation axis
	// and the parity/fuzz reference path. Output is identical; only where
	// the rows are dropped changes.
	NoPushdown bool
	// ExpectedColumns fixes the input's column count. 0 infers it from
	// the input (§4.3 "Inferring or validating number of columns").
	ExpectedColumns int
	// RejectInconsistent marks records whose column count deviates from
	// the expected/inferred count as rejected instead of padding or
	// truncating them.
	RejectInconsistent bool
	// RejectMalformed marks records with unparseable field values as
	// rejected; otherwise such fields become NULL.
	RejectMalformed bool
	// DefaultValues maps column index to the textual default applied to
	// empty fields (§4.3 "Default values for empty strings").
	DefaultValues map[int]string
	// Validate fails the parse when the DFA detects invalid input or a
	// non-accepting end state (§4.3 "Validating format"). When false,
	// Result.Stats.InvalidInput records the condition instead.
	Validate bool
	// ConvertWorkers is the number of concurrent column workers of the
	// convert phase (§3.3) in the InlineTerminated and VectorDelimited
	// modes: index construction, type inference, and materialisation of
	// distinct columns run on a pool of this many goroutines, each
	// drawing device memory from its own arena shard. A RecordTagged run
	// converts record blocks across all its columns in device launches
	// instead, and reads no pool width.
	// 0 means min(runtime.GOMAXPROCS(0), Device.Workers()), so a device
	// with one worker parses single-threaded throughout; 1 forces the
	// sequential per-column loop. Output is byte-identical at every
	// setting (the parity harness and fuzzers pin this). It is set by
	// the ablation, the benchmarks and the tests; the public API leaves
	// it at its default. In modelled-time mode (Config.VirtualWorkers)
	// the convert stage always runs its columns sequentially, matching
	// the paper's serialised kernel launches.
	ConvertWorkers int
	// InFlight is the number of streaming partitions the ring keeps in
	// flight at once (§4.4 extended across partitions): each in-flight
	// partition runs the whole kernel pipeline on its own arena while
	// the ring's emit stage releases tables in input order. 0 means a
	// GOMAXPROCS-derived default (capped at MaxInFlight); 1 is one slot
	// on one recycled arena. In modelled-time mode (device
	// VirtualWorkers) the ring is forced to 1 so the modelled schedule
	// stays the paper's serialised one. Output is byte-identical at
	// every setting.
	InFlight int
	// Trailing controls what happens to input after the last record
	// delimiter. TrailingRecord (default) parses it as one final record;
	// TrailingRemainder excludes it and reports its size in
	// Result.Remainder — the carry-over contract of the streaming
	// pipeline (§4.4).
	Trailing TrailingMode
	// Encoding declares the input's symbol encoding (§4.2). ASCII and
	// UTF8 inputs parse directly (multi-byte UTF-8 sequences are plain
	// data bytes for formats whose control symbols are ASCII); UTF16LE
	// and UTF16BE inputs are transcoded to UTF-8 on the device first,
	// charged to the "transcode" phase.
	Encoding utfx.Encoding
	// DetectEncoding sniffs a byte-order mark, sets Encoding
	// accordingly, and strips the BOM.
	DetectEncoding bool
}

// TrailingMode selects the treatment of bytes after the last record
// delimiter.
type TrailingMode int

const (
	// TrailingRecord treats the unterminated tail as the final record.
	TrailingRecord TrailingMode = iota
	// TrailingRemainder excludes the tail and reports it via
	// Result.Remainder, for prepending to the next streaming partition.
	TrailingRemainder
)

func (o Options) withDefaults() Options {
	if o.Machine == nil {
		o.Machine = defaultMachine
	}
	if o.Device == nil {
		o.Device = defaultDevice
	}
	// The arena is deliberately NOT defaulted here: it is a per-run
	// resource resolved by Plan.Execute, so one compiled Plan can serve
	// many concurrent executions each with its own arena.
	if o.ChunkSize <= 0 {
		o.ChunkSize = DefaultChunkSize
		if o.Device.ModelledTime() {
			o.ChunkSize = PaperChunkSize
		}
	}
	if o.Terminator == 0 {
		o.Terminator = css.DefaultTerminator
	}
	if o.ConvertWorkers <= 0 {
		o.ConvertWorkers = min(runtime.GOMAXPROCS(0), o.Device.Workers())
	}
	if o.InFlight <= 0 {
		o.InFlight = runtime.GOMAXPROCS(0)
		if o.InFlight > DefaultMaxInFlight {
			o.InFlight = DefaultMaxInFlight
		}
	}
	if o.InFlight > MaxInFlight {
		o.InFlight = MaxInFlight
	}
	if o.Device.ModelledTime() {
		// A modelled device reports the list-scheduled makespan of one
		// serialised kernel sequence; overlapping partitions would mix
		// several sequences into the same virtual timeline.
		o.InFlight = 1
	}
	return o
}

// DefaultMaxInFlight caps the GOMAXPROCS-derived InFlight default: each
// in-flight partition runs a full kernel pipeline, so beyond a handful
// of partitions the extra ring depth only buys memory footprint.
const DefaultMaxInFlight = 8

// MaxInFlight is the hard cap on explicit InFlight requests — a sanity
// bound on the ring's memory budget (InFlight × partition footprint),
// not a tuning knob.
const MaxInFlight = 64

var (
	defaultMachine = dfa.RFC4180()
	defaultDevice  = device.Default()
)

// PhaseNames lists the pipeline phases in execution order.
var PhaseNames = []string{"parse", "scan", "tag", "partition", "convert"}

// Result is a completed parse.
type Result struct {
	// Table is the columnar output.
	Table *columnar.Table
	// Header holds the column names consumed from the input's header
	// record, when Options.HasHeader was set.
	Header []string
	// Remainder is the number of trailing input bytes not covered by a
	// complete record (only with Options.Trailing == TrailingRemainder).
	Remainder int
	// Stats describes the run.
	Stats Stats
}
