// Command parparaw parses a delimiter-separated file into columnar form
// and prints a summary (schema, row count, per-column statistics) plus,
// optionally, the first rows — a minimal ingest tool built on the
// public API.
//
// Usage:
//
//	parparaw [-format csv|tsv|psv|jsonl|weblog] [-header]
//	         [-delim ,] [-comment '#'] [-mode tagged|inline|delimited]
//	         [-stream] [-partition-size 32MB] [-inflight N] [-v]
//	         [-select 0,3,5] [-where '1=JFK;4:int:0:100'] [-head 10]
//	         [-validate] [-retry N] [-timeout 30s] file.csv
//
// -format selects a dialect preset from the registry (see
// parparaw.Dialects). The default is csv, whose -delim, -comment, and
// -crlf knobs refine it; the other presets are fixed grammars, so
// combining them with the CSV knobs is an error. With -header, jsonl
// names columns from the first record's keys and weblog from the
// input's "#Fields:" directive — neither consumes a record.
//
// The run is cancellable: SIGINT or SIGTERM (and -timeout expiry)
// cancels the parse through its context — the streaming ring drains,
// every goroutine joins, partial statistics are printed to standard
// error, and the command exits nonzero. -retry N retries transient
// input read failures up to N attempts per read position with capped
// exponential backoff, resuming at the exact failed byte offset.
//
// -select projects the output down to the listed column indices, and
// -where keeps only rows passing every listed predicate; both are pushed
// into the parse plan (ScanOptions), so pruned columns and rows are
// skipped before partitioning, not dropped afterwards. Predicates are
// separated by ';' and reference pre-selection column indices:
//
//	col=value        field equals value
//	col!=value       field differs from value
//	col^=prefix      field starts with prefix
//	col:null         field is empty
//	col:notnull      field is non-empty
//	col:int:lo:hi    field parses as an integer in [lo, hi]
//	col:float:lo:hi  field parses as a float in [lo, hi]
//
// With no file argument, standard input is read. Input is always
// consumed through the Reader path — files are never loaded whole: in
// -stream mode they flow through StreamReader partition by partition,
// and otherwise through ParseReader, which itself streams inputs above
// its size threshold.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	parparaw "repro"
)

func main() {
	format := flag.String("format", "csv", "dialect preset: csv, tsv, psv, jsonl, or weblog")
	header := flag.Bool("header", false, "treat the first record as column names")
	delim := flag.String("delim", ",", "field delimiter (single byte)")
	comment := flag.String("comment", "", "line-comment symbol (single byte, optional)")
	crlf := flag.Bool("crlf", false, "accept CRLF record delimiters")
	mode := flag.String("mode", "tagged", "tagging mode: tagged, inline, or delimited")
	streamFlag := flag.Bool("stream", false, "use the end-to-end streaming pipeline")
	partition := flag.String("partition-size", "32MB", "streaming partition size")
	flag.StringVar(partition, "partition", *partition, "alias for -partition-size")
	inFlight := flag.Int("inflight", 0, "streaming partitions in flight (0 = GOMAXPROCS-derived, 1 = one at a time)")
	verbose := flag.Bool("v", false, "print per-stage busy times and pushdown pruning counters")
	selectSpec := flag.String("select", "", "comma-separated column indices to keep (projection pushdown)")
	whereSpec := flag.String("where", "", "semicolon-separated row predicates (predicate pushdown); see package doc")
	head := flag.Int("head", 0, "print the first N rows")
	validate := flag.Bool("validate", false, "fail on format violations")
	retry := flag.Int("retry", 0, "retry transient input read failures up to N attempts per position (0 disables)")
	timeout := flag.Duration("timeout", 0, "cancel the run after this duration (0 disables)")
	chunk := flag.Int("chunk", 0, "chunk size in bytes (0 = 1024, the CPU default)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "parparaw:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "parparaw:", err)
			os.Exit(1)
		}
	}

	// SIGINT/SIGTERM cancel the run through its context: the streaming
	// ring drains, goroutines join, and the partial stats still print. A
	// second signal kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	err := run(ctx, *format, *header, *delim, *comment, *crlf, *mode, *streamFlag, *partition, *inFlight, *verbose, *selectSpec, *whereSpec, *head, *validate, *retry, *chunk, flag.Arg(0))

	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, merr := os.Create(*memprofile)
		if merr != nil {
			fmt.Fprintln(os.Stderr, "parparaw:", merr)
			os.Exit(1)
		}
		runtime.GC() // settle heap statistics before the snapshot
		if werr := pprof.WriteHeapProfile(f); werr != nil {
			fmt.Fprintln(os.Stderr, "parparaw:", werr)
			os.Exit(1)
		}
		f.Close()
	}

	if err != nil {
		fmt.Fprintln(os.Stderr, "parparaw:", err)
		if errors.Is(err, parparaw.ErrCanceled) {
			os.Exit(130) // interrupted, the shell convention
		}
		os.Exit(1)
	}
}

func run(ctx context.Context, formatName string, header bool, delim, comment string, crlf bool, modeName string, streaming bool, partition string, inFlight int, verbose bool, selectSpec, whereSpec string, head int, validate bool, retry, chunk int, path string) error {
	var input io.Reader
	if path == "" || path == "-" {
		input = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		input = f
	}

	var mode parparaw.TaggingMode
	switch modeName {
	case "tagged":
		mode = parparaw.RecordTagged
	case "inline":
		mode = parparaw.InlineTerminated
	case "delimited":
		mode = parparaw.VectorDelimited
	default:
		return fmt.Errorf("unknown mode %q", modeName)
	}

	var fmtSpec *parparaw.Format
	if strings.EqualFold(formatName, "csv") {
		csv := parparaw.CSV{CRLF: crlf}
		if len(delim) != 1 {
			return fmt.Errorf("delimiter must be one byte, got %q", delim)
		}
		csv.Delimiter = delim[0]
		if comment != "" {
			if len(comment) != 1 {
				return fmt.Errorf("comment symbol must be one byte, got %q", comment)
			}
			csv.Comment = comment[0]
		}
		fmtSpec = parparaw.NewCSV(csv)
	} else {
		// The other presets are fixed grammars; the CSV refinement
		// knobs would be silently ignored, so reject them loudly.
		if delim != "," || comment != "" || crlf {
			return fmt.Errorf("-delim/-comment/-crlf apply only to -format csv, not %q", formatName)
		}
		var err error
		if fmtSpec, err = parparaw.FormatByName(formatName); err != nil {
			return err
		}
	}

	opts := parparaw.Options{
		Format:    fmtSpec,
		HasHeader: header,
		Mode:      mode,
		ChunkSize: chunk,
		Validate:  validate,
		InFlight:  inFlight,
	}
	if selectSpec != "" {
		sel, err := parparaw.ParseSelectSpec(selectSpec)
		if err != nil {
			return err
		}
		opts.Scan.Select = sel
	}
	if whereSpec != "" {
		where, err := parparaw.ParseWhereSpec(whereSpec)
		if err != nil {
			return err
		}
		opts.Scan.Where = where
	}

	var table *parparaw.Table
	var stats string
	begin := time.Now()
	if streaming {
		partBytes, err := parparaw.ParseSizeSpec(partition)
		if err != nil {
			return err
		}
		res, err := parparaw.StreamReaderContext(ctx, input, parparaw.StreamOptions{
			Options: opts,
			StreamConfig: parparaw.StreamConfig{
				PartitionSize: partBytes,
				Retry:         parparaw.RetryPolicy{MaxAttempts: retry},
			},
		})
		if err != nil {
			// A failed stream still reports the partial progress it
			// drained from the ring — what an interrupted long ingest
			// most wants to know.
			if res != nil {
				rows := res.NumRows()
				s := res.Stats
				fmt.Fprintf(os.Stderr,
					"parparaw: interrupted after %v: %d rows in %d partitions emitted, %d input bytes consumed, %d reads retried\n",
					s.Duration.Round(time.Millisecond), rows, len(res.Tables), s.InputBytes, s.Retries)
			}
			return err
		}
		table, err = res.Combined()
		if err != nil {
			return err
		}
		stats = fmt.Sprintf("streamed %d partitions (%d in flight), max carry-over %d B, in/out %d/%d B, device mem %d B",
			res.Stats.Partitions, res.Stats.InFlight, res.Stats.MaxCarryOver, res.Stats.InputBytes, res.Stats.OutputBytes, res.Stats.DeviceBytes)
		if verbose {
			s := res.Stats
			stats += fmt.Sprintf("\nstage busy over %v wall: read %v, boundary wait %v, parse %v, emit %v",
				s.Duration, s.ReadBusy, s.BoundaryBusy, s.ParseBusy, s.EmitBusy)
			if s.SerialFallbacks > 0 {
				stats += fmt.Sprintf("\nnext partition waited for the whole parse on %d/%d partitions (no published boundary)",
					s.SerialFallbacks, s.Partitions)
			}
			if s.RowsPruned > 0 || s.BytesSkipped > 0 {
				stats += fmt.Sprintf("\npushdown: %d rows pruned, %d symbol bytes never moved",
					s.RowsPruned, s.BytesSkipped)
			}
			if s.Retries > 0 {
				stats += fmt.Sprintf("\nretried %d input reads, recovering %d B", s.Retries, s.RetriedBytes)
			}
			stats += phaseSplit(s)
		}
	} else {
		eng, err := parparaw.NewEngine(opts)
		if err != nil {
			return err
		}
		res, err := eng.ParseReaderContext(ctx, input)
		if err != nil {
			return err
		}
		table = res.Table
		s := res.Stats
		stats = fmt.Sprintf("parsed %d chunks at %.1f MB/s (device time %v, device mem %d B)",
			s.Chunks, s.Throughput()/1e6, s.DeviceTime(), s.DeviceBytes)
		if verbose {
			if s.RowsPruned > 0 || s.BytesSkipped > 0 {
				stats += fmt.Sprintf("\npushdown: %d rows pruned, %d symbol bytes never moved",
					s.RowsPruned, s.BytesSkipped)
			}
			stats += phaseSplit(s)
		}
	}
	wall := time.Since(begin)

	fmt.Printf("%s: %d rows x %d columns in %v\n", displayName(path), table.NumRows(), table.NumColumns(), wall)
	fmt.Println(stats)
	fmt.Println()
	fmt.Printf("%-4s %-24s %-14s %8s\n", "#", "column", "type", "nulls")
	for c := 0; c < table.NumColumns(); c++ {
		col := table.Column(c)
		fmt.Printf("%-4d %-24s %-14s %8d\n", c, col.Name(), col.Type(), col.NullCount())
	}
	if rejected := table.RejectedCount(); rejected > 0 {
		fmt.Printf("\nrejected records: %d\n", rejected)
	}

	if head > 0 {
		n := head
		if n > table.NumRows() {
			n = table.NumRows()
		}
		fmt.Println()
		for r := 0; r < n; r++ {
			var row []string
			for c := 0; c < table.NumColumns(); c++ {
				col := table.Column(c)
				if col.IsNull(r) {
					row = append(row, "NULL")
				} else {
					row = append(row, col.ValueString(r))
				}
			}
			fmt.Printf("%6d | %s\n", r, strings.Join(row, " | "))
		}
	}
	return nil
}

// phaseSplit renders a run's kernel-phase device times (Figure 9's
// breakdown; a streamed run sums its partitions') and the chunks the
// emit launch walked again after a wrong start-state guess.
func phaseSplit(s parparaw.Stats) string {
	var parts []string
	for _, name := range parparaw.PhaseNames {
		parts = append(parts, fmt.Sprintf("%s %v", name, s.Phases[name]))
	}
	return fmt.Sprintf("\nphases over %d chunks, %d re-emitted (device time %v): %s",
		s.Chunks, s.ReemittedChunks, s.DeviceTime(), strings.Join(parts, ", "))
}

func displayName(path string) string {
	if path == "" || path == "-" {
		return "stdin"
	}
	return path
}

// The -select, -where, and size-spec grammars are shared with the
// ingestion daemon: see parparaw.ParseSelectSpec, ParseWhereSpec, and
// ParseSizeSpec.
