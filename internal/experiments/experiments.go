// Package experiments regenerates every table and figure of the paper's
// experimental evaluation (§5). Each experiment prints the same rows or
// series the paper reports, with sizes scaled from the paper's 4.8-9.1 GB
// datasets down to laptop memory, and with the paper's 3 584-core GPU
// replaced by the simulated device in modelled-time mode (per-block costs
// are measured on the host and list-scheduled onto VirtualWorkers virtual
// cores; see internal/device). EXPERIMENTS.md records paper-vs-measured
// for every experiment.
package experiments

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/workload"
)

// Config parameterises an experiment run.
type Config struct {
	// Out receives the experiment's report. Nil means os.Stdout.
	Out io.Writer
	// Size is the base input size in bytes for dataset-driven
	// experiments. 0 means 16 MB.
	Size int
	// Seed drives deterministic dataset generation. 0 means 42.
	Seed int64
	// VirtualWorkers is the modelled device width. 0 means 3584, the
	// core count of the paper's Titan X (Pascal).
	VirtualWorkers int
	// Workers bounds real host parallelism. 0 means GOMAXPROCS.
	Workers int
	// Quick trims sweeps to a handful of points (CI mode).
	Quick bool
	// Reps is the number of repetitions per measured configuration; the
	// minimum is reported (the standard estimator under load-inflation
	// noise). 0 means 1.
	Reps int
}

func (c Config) withDefaults() Config {
	if c.Out == nil {
		c.Out = os.Stdout
	}
	if c.Size <= 0 {
		c.Size = 16 << 20
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.VirtualWorkers <= 0 {
		c.VirtualWorkers = 3584
	}
	return c
}

// newDevice returns a fresh modelled-time device for one measurement.
func (c Config) newDevice() *device.Device {
	return device.New(device.Config{Workers: c.Workers, VirtualWorkers: c.VirtualWorkers})
}

func (c Config) specs() []workload.Spec {
	return []workload.Spec{workload.Yelp(), workload.Taxi()}
}

// Experiment is one reproducible unit: a table, a figure, or an
// ablation.
type Experiment struct {
	// Name is the CLI identifier (e.g. "fig9").
	Name string
	// Title describes the experiment.
	Title string
	// Run executes it.
	Run func(Config) error
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Transition table with symbol groups (Table 1)", Table1},
		{"table2", "SWAR symbol-index worked example (Table 2)", Table2},
		{"fig8", "Multi-fragment in-register array layout (Figure 8)", Fig8},
		{"fig9", "Step breakdown vs chunk size (Figure 9)", Fig9},
		{"fig10", "Parsing rate vs input size (Figure 10)", Fig10},
		{"fig11", "Tagging modes and skewed input (Figure 11)", Fig11},
		{"fig12", "End-to-end duration vs partition size (Figure 12)", Fig12},
		{"fig13", "End-to-end comparison against other systems (Figure 13)", Fig13},
		{"scaling", "Throughput vs core count (§1/§6 scalability claim)", Scaling},
		{"ablation", "Design-choice ablations (context strategy, scan, fast paths, convert pool)", Ablation},
	}
}

// Run executes the named experiment ("all" runs everything).
func Run(name string, cfg Config) error {
	if name == "all" {
		for _, e := range All() {
			if err := Run(e.Name, cfg); err != nil {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
		}
		return nil
	}
	for _, e := range All() {
		if e.Name == name {
			c := cfg.withDefaults()
			fmt.Fprintf(c.Out, "\n=== %s: %s ===\n", e.Name, e.Title)
			return e.Run(c)
		}
	}
	return fmt.Errorf("experiments: unknown experiment %q (have %v)", name, names())
}

func names() []string {
	var ns []string
	for _, e := range All() {
		ns = append(ns, e.Name)
	}
	return ns
}

// parseModelled runs one core parse on a fresh modelled-time device and
// returns the result; Stats.Phases hold the modelled per-phase times.
// With Reps > 1 the run with the smallest modelled total is returned.
func (c Config) parseModelled(input []byte, opts core.Options) (*core.Result, error) {
	reps := c.Reps
	if reps < 1 {
		reps = 1
	}
	var best *core.Result
	for r := 0; r < reps; r++ {
		opts.Device = c.newDevice()
		res, err := core.Parse(input, opts)
		if err != nil {
			return nil, err
		}
		if best == nil || res.Stats.DeviceTime() < best.Stats.DeviceTime() {
			best = res
		}
	}
	return best, nil
}

// orderedPhases returns core's pipeline phases first, then any extras in
// sorted order.
func orderedPhases(phases map[string]time.Duration) []string {
	out := append([]string(nil), core.PhaseNames...)
	seen := make(map[string]bool, len(out))
	for _, p := range out {
		seen[p] = true
	}
	var extra []string
	for p := range phases {
		if !seen[p] {
			extra = append(extra, p)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}

// rate formats bytes/duration as a human-readable throughput.
func rate(bytes int64, d time.Duration) string {
	if d <= 0 {
		return "inf"
	}
	bps := float64(bytes) / d.Seconds()
	switch {
	case bps >= 1e9:
		return fmt.Sprintf("%.2f GB/s", bps/1e9)
	case bps >= 1e6:
		return fmt.Sprintf("%.2f MB/s", bps/1e6)
	default:
		return fmt.Sprintf("%.2f KB/s", bps/1e3)
	}
}

// mb renders a byte count in MB (or KB below 1 MB).
func mb(n int) string {
	if n >= 1<<20 {
		return fmt.Sprintf("%d MB", n>>20)
	}
	return fmt.Sprintf("%d KB", n>>10)
}

// ms renders a duration in milliseconds with two decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}
