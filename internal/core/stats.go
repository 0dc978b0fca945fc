package core

import "time"

// Stats counts one run: a whole-input parse, one streaming partition, a
// streamed run, or any number of runs folded together. It is the only
// run-counter type: a parse fills it, a streamed run is its
// partitions' Stats folded with Add plus the ring's own counters, and a
// daemon's totals are its runs folded with the same Add. The public
// Stats and StreamStats are aliases of it.
type Stats struct {
	// InputBytes is the byte count parsed. A parse counts the bytes its
	// kernels ran over (after row skipping and header consumption); a
	// streamed run counts the raw bytes it read from its source.
	InputBytes int64
	// OutputBytes is the columnar data volume (Table.DataBytes) a
	// streamed run emitted (0 for a single parse).
	OutputBytes int64
	// Chunks is the number of data-parallel chunks.
	Chunks int
	// ReemittedChunks is the number of chunks the emit launch walked
	// again because the parse launch had emitted them from a start
	// state the scan proved wrong. It equals Chunks on a run that takes
	// no guess: a modelled-time device, or a machine with its fused
	// tables off.
	ReemittedChunks int
	// Records is the number of output records: the rows of the returned
	// table, or of the tables a streamed run emitted. Rows pruned by the
	// Where predicates are not counted.
	Records int64
	// Columns is the number of output columns.
	Columns int
	// MinColumns and MaxColumns are the observed per-record column
	// counts before selection (§4.3 inference/validation); both are 0
	// when the run saw no record.
	MinColumns, MaxColumns int
	// InvalidInput reports that the DFA saw an invalid transition or a
	// non-accepting end state (only set when Validate is false; with
	// Validate the run fails instead).
	InvalidInput bool
	// RowsPruned is the number of rows dropped by the Where predicates
	// (not counting rows already dropped via SkipRecords). It is set on
	// both the pushdown and the post-materialisation pruning paths.
	RowsPruned int64
	// BytesSkipped is the number of bytes of complete records that the
	// partition scatter never moved: structural bytes (delimiters,
	// quotes), the data of unselected columns, and the data of rows
	// pruned by Where or SkipRecords. Rows that Where prunes after
	// materialisation (an inferred schema, or NoPushdown) count as if
	// pushed down, so both paths report the same number. Bytes of an
	// incomplete trailing record carried to the next streaming
	// partition are counted there. Higher is better: it is input volume
	// the device only had to index, not move.
	BytesSkipped int64
	// QuarantinedRecords is the number of rejected records diverted to
	// the bad-record callback (0 when none was installed).
	QuarantinedRecords int64
	// Phases maps each pipeline phase (parse, scan, tag, partition,
	// convert, and the optional ones that ran, such as "transcode") to
	// its device time: the Figure 9 breakdown. Every parse times its
	// own kernel launches on a private timer, so concurrent parses on
	// one device never count each other's launches. Launches within one
	// parse run one after another, except the convert phase's columns,
	// which a pool of goroutines converts concurrently; so outside
	// modelled-time mode, with one worker, the phases sum to at most
	// Duration. In modelled-time mode these are the modelled durations
	// on the virtual device, launch overhead included, and their sum
	// may exceed Duration. A streamed run sums its partitions' phases.
	Phases map[string]time.Duration
	// DeviceBytes is the peak device-memory footprint: the high-water
	// mark of the arena the run's kernels drew their buffers from. A
	// streamed run sums the peaks of the arenas its ring slots drew, so
	// the memory cost of depth is InFlight × one partition's footprint.
	DeviceBytes int64
	// Duration is the wall-clock time of the run.
	Duration time.Duration

	// The counters below are the streaming ring's own; a single parse
	// leaves them zero.

	// Partitions is the number of partitions processed.
	Partitions int
	// InFlight is the ring depth the run actually used: the number of
	// partitions processed concurrently (1 = one slot, one arena).
	InFlight int
	// MaxCarryOver is the largest record fragment carried between
	// partitions (bytes).
	MaxCarryOver int
	// SerialFallbacks counts the non-final partitions whose successor
	// waited for the whole parse: their parse published no boundary
	// (the first partition while its header, skipped rows or inferred
	// schema are unsettled, UTF-16 input), so the ring cut the next
	// carry from the finished parse's CompleteBytes. It is counted at
	// every depth, 1 included.
	SerialFallbacks int
	// Retries is the number of input read attempts that failed and were
	// retried under the run's retry policy; RetriedBytes is the bytes
	// recovered by reads that succeeded after at least one retry.
	Retries, RetriedBytes int64
	// QuarantinedPartitions counts partitions whose parse failed and was
	// quarantined (SkipBadPartitions) instead of failing the run.
	QuarantinedPartitions int
	// ReadBusy, BoundaryBusy, ParseBusy and EmitBusy are the time the
	// ring spent reading input from its source, waiting for partition
	// boundaries (the scheduler's wait, from dispatching a partition to
	// its published boundary or, for a serial fallback, its finished
	// parse), parsing partitions, and emitting them (folding each
	// partition's Stats and appending its table). The boundary wait
	// overlaps the parse it waits on. ParseBusy sums concurrent
	// partition parses, so it may exceed Duration when InFlight > 1.
	ReadBusy, BoundaryBusy, ParseBusy, EmitBusy time.Duration
}

// Add folds o into s, so that s counts both runs. The rules, field by
// field:
//
//   - counts, byte volumes and durations sum — Duration and DeviceBytes
//     included, so a caller that runs the two concurrently sets those
//     itself (the streaming ring sets InputBytes, DeviceBytes and
//     Duration for the whole run after folding its partitions);
//   - Phases sum by phase name;
//   - InvalidInput is ORed;
//   - Columns, MaxColumns, MaxCarryOver and InFlight keep the maximum;
//   - MinColumns keeps the minimum over the runs that saw a record (a
//     run that saw none has MaxColumns 0, since a record has at least
//     one column).
//
// Add writes o's phases into s.Phases, allocating it when nil; a Stats
// that shares its Phases map with another must not be the receiver.
func (s *Stats) Add(o Stats) {
	s.InputBytes += o.InputBytes
	s.OutputBytes += o.OutputBytes
	s.Chunks += o.Chunks
	s.ReemittedChunks += o.ReemittedChunks
	s.Records += o.Records
	s.Columns = max(s.Columns, o.Columns)
	if o.MaxColumns > 0 && (s.MaxColumns == 0 || o.MinColumns < s.MinColumns) {
		s.MinColumns = o.MinColumns
	}
	s.MaxColumns = max(s.MaxColumns, o.MaxColumns)
	s.InvalidInput = s.InvalidInput || o.InvalidInput
	s.RowsPruned += o.RowsPruned
	s.BytesSkipped += o.BytesSkipped
	s.QuarantinedRecords += o.QuarantinedRecords
	if len(o.Phases) > 0 && s.Phases == nil {
		s.Phases = make(map[string]time.Duration, len(o.Phases))
	}
	for name, d := range o.Phases {
		s.Phases[name] += d
	}
	s.DeviceBytes += o.DeviceBytes
	s.Duration += o.Duration
	s.Partitions += o.Partitions
	s.InFlight = max(s.InFlight, o.InFlight)
	s.MaxCarryOver = max(s.MaxCarryOver, o.MaxCarryOver)
	s.SerialFallbacks += o.SerialFallbacks
	s.Retries += o.Retries
	s.RetriedBytes += o.RetriedBytes
	s.QuarantinedPartitions += o.QuarantinedPartitions
	s.ReadBusy += o.ReadBusy
	s.BoundaryBusy += o.BoundaryBusy
	s.ParseBusy += o.ParseBusy
	s.EmitBusy += o.EmitBusy
}

// DeviceTime is the total device time across all phases: the
// CUDA-event-sum analogue, modelled on a modelled-time device.
func (s Stats) DeviceTime() time.Duration {
	var t time.Duration
	for _, d := range s.Phases {
		t += d
	}
	return t
}

// Throughput returns the run's rate in input bytes per second of wall
// time.
func (s Stats) Throughput() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.InputBytes) / s.Duration.Seconds()
}
