package experiments

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/pcie"
	"repro/internal/stream"
	"repro/internal/workload"
)

// modelledStream parses the input partition by partition on fresh
// modelled-time devices and returns the per-partition stage durations
// for the Figure 7 schedule simulation: host-to-device transfer of the
// raw partition, modelled parse, device-to-host return of the parsed
// columnar data. The bus is the PCIe 3.0 x16 model; its durations are
// computed, never slept.
func (c Config) modelledStream(input []byte, partSize int, spec workload.Spec) ([]stream.SimPartition, int64, error) {
	bus := pcie.Default()
	// One arena for every partition, reset in between, exactly like the
	// real streaming pipeline: the returned peak is the fixed device
	// footprint the Figure-12 trade-off buys throughput with.
	arena := device.NewArena()
	// Likewise one compiled plan (and one modelled device) for the whole
	// run — partitions vary only their per-run Exec, mirroring how the
	// Engine serves the real streaming pipeline. Per-partition phase
	// times are deltas of the shared device's timers.
	plan, err := core.Compile(core.Options{Schema: spec.Schema, Device: c.newDevice()})
	if err != nil {
		return nil, 0, err
	}
	parts := make([]stream.SimPartition, 0, len(input)/partSize+1)
	var carry []byte
	cursor := 0
	for {
		fresh := stream.NextFresh(partSize, len(carry), len(input)-cursor)
		final := cursor+fresh == len(input)
		arena.Reset()
		buf := device.Alloc[byte](arena, len(carry)+fresh)[:0]
		buf = append(buf, carry...)
		buf = append(buf, input[cursor:cursor+fresh]...)
		cursor += fresh

		exec := plan.BaseExec(arena)
		exec.Trailing = core.TrailingRemainder
		if final {
			exec.Trailing = core.TrailingRecord
		}
		// Best-of-Reps, like parseModelled: keep the execution with the
		// smallest modelled total so a loaded host does not skew the
		// figure. Phase times are per-run deltas, so the shared device's
		// accumulated timers do not bleed between reps.
		reps := c.Reps
		if reps < 1 {
			reps = 1
		}
		var res *core.Result
		for r := 0; r < reps; r++ {
			rr, err := plan.Execute(buf, exec)
			if err != nil {
				return nil, 0, err
			}
			if res == nil || rr.Stats.DeviceTime() < res.Stats.DeviceTime() {
				res = rr
			}
		}
		carry = append(carry[:0], buf[len(buf)-res.Remainder:]...)
		parts = append(parts, stream.SimPartition{
			TransferIn:  bus.TransferDuration(pcie.HostToDevice, int64(fresh)),
			Parse:       res.Stats.DeviceTime(),
			TransferOut: bus.TransferDuration(pcie.DeviceToHost, res.Table.DataBytes()),
		})
		if final {
			return parts, arena.PeakBytes(), nil
		}
	}
}

// Fig12 reproduces Figure 12: end-to-end duration as a function of the
// streaming partition size. The shape to reproduce is the U-curve:
// performance improves with partition size (fewer per-transfer and
// per-launch overheads) until the pipeline fill/drain — copying the
// first partition and returning the last — starts to dominate.
func Fig12(cfg Config) error {
	fractions := []int{256, 128, 64, 32, 16, 8, 4, 2}
	if cfg.Quick {
		fractions = []int{64, 8, 2}
	}
	fmt.Fprintf(cfg.Out, "\nmodelled end-to-end duration (%d virtual cores, PCIe 3.0 x16 model)\n", cfg.VirtualWorkers)
	fmt.Fprintf(cfg.Out, "%-12s %16s %16s %14s\n", "partition", "yelp", "NYC taxi", "device mem")
	type row struct {
		label string
		vals  [2]time.Duration
		mem   int64
	}
	rows := make([]row, len(fractions))
	for d, spec := range cfg.specs() {
		input := spec.Generate(cfg.Size, cfg.Seed)
		for i, frac := range fractions {
			partSize := len(input) / frac
			if partSize < 1 {
				partSize = 1
			}
			parts, deviceBytes, err := cfg.modelledStream(input, partSize, spec)
			if err != nil {
				return err
			}
			rows[i].label = mb(partSize)
			rows[i].vals[d] = stream.Simulate(parts).Total
			if deviceBytes > rows[i].mem {
				rows[i].mem = deviceBytes
			}
		}
	}
	for _, r := range rows {
		fmt.Fprintf(cfg.Out, "%-12s %14sms %14sms %14s\n", r.label, ms(r.vals[0]), ms(r.vals[1]), mb(int(r.mem)))
	}
	return nil
}

// fig13Row is one system's end-to-end result on one dataset.
type fig13Row struct {
	system   string
	duration time.Duration
	err      error
}

// Fig13 reproduces Figure 13: the end-to-end comparison of ParPaRaw
// against the GPU comparator (quote-parity, the cuDF-class approach),
// Instant Loading (fast path and safe mode, modelled on the paper's 32
// cores), and the single-threaded CPU loaders (the MonetDB/pandas/Spark
// class). Shapes to reproduce: ParPaRaw is roughly transfer-bound and an
// order of magnitude ahead of the GPU comparator with host output;
// Instant Loading fails on yelp (×) but is the best CPU system on taxi;
// the sequential loaders trail by orders of magnitude.
func Fig13(cfg Config) error {
	bus := pcie.Default()
	for _, spec := range cfg.specs() {
		input := spec.Generate(cfg.Size, cfg.Seed)
		fmt.Fprintf(cfg.Out, "\n%s (%s): end-to-end durations\n", spec.Name, mb(len(input)))
		fmt.Fprintf(cfg.Out, "%-22s %14s %10s\n", "system", "duration", "vs best")

		var rows []fig13Row

		// ParPaRaw: streaming end-to-end, modelled device + simulated bus.
		parts, _, err := cfg.modelledStream(input, len(input)/8, spec)
		if err != nil {
			return err
		}
		rows = append(rows, fig13Row{system: "ParPaRaw (stream)", duration: stream.Simulate(parts).Total})

		// Quote-parity GPU comparator, cuDF-style. cuDF* keeps the data
		// on the device; cuDF exports to host (to_arrow()).
		d := cfg.newDevice()
		qc := baseline.NewQuoteCount(d)
		tbl, err := qc.Load(input, spec.Schema)
		if err != nil {
			rows = append(rows, fig13Row{system: "quote-parity GPU (cuDF*)", err: err})
			rows = append(rows, fig13Row{system: "quote-parity GPU (cuDF)", err: err})
		} else {
			onDevice := bus.TransferDuration(pcie.HostToDevice, int64(len(input))) + d.Timers().Total()
			rows = append(rows, fig13Row{system: "quote-parity GPU (cuDF*)", duration: onDevice})
			rows = append(rows, fig13Row{system: "quote-parity GPU (cuDF)",
				duration: onDevice + bus.TransferDuration(pcie.DeviceToHost, tbl.DataBytes())})
		}

		// Instant Loading, modelled on the paper's 32 physical cores.
		for _, safe := range []bool{false, true} {
			il := baseline.NewInstantLoading(32, safe)
			il.MeasureTiming = true
			name := "Instant Loading (32c)"
			if safe {
				name = "Instant Loading safe (32c)"
			}
			if _, err := il.Load(input, spec.Schema); err != nil {
				rows = append(rows, fig13Row{system: name, err: err})
				continue
			}
			rows = append(rows, fig13Row{system: name, duration: il.LastTiming().Modelled(32)})
		}

		// Single-threaded CPU loaders, measured wall-clock.
		for _, l := range []baseline.Loader{baseline.NewSequential(), baseline.NewNaiveSplit()} {
			begin := time.Now()
			_, err := l.Load(input, spec.Schema)
			dur := time.Since(begin)
			name := fmt.Sprintf("%s (1 core)", l.Name())
			if err != nil {
				rows = append(rows, fig13Row{system: name, err: err})
				continue
			}
			rows = append(rows, fig13Row{system: name, duration: dur})
		}

		best := time.Duration(0)
		for _, r := range rows {
			if r.err == nil && (best == 0 || r.duration < best) {
				best = r.duration
			}
		}
		for _, r := range rows {
			if r.err != nil {
				reason := "unsupported input"
				if !errors.Is(r.err, baseline.ErrUnsupportedInput) {
					reason = r.err.Error()
				}
				fmt.Fprintf(cfg.Out, "%-22s %14s %10s  (%s)\n", r.system, "×", "", reason)
				continue
			}
			fmt.Fprintf(cfg.Out, "%-22s %12sms %9.1fx\n", r.system, ms(r.duration), float64(r.duration)/float64(best))
		}
	}
	return nil
}
