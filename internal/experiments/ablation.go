package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/css"
	"repro/internal/device"
	"repro/internal/dfa"
	"repro/internal/scan"
)

// Ablation quantifies the design choices DESIGN.md calls out:
//
//  1. multi-DFA context inference vs a sequential context pre-pass
//     (Instant Loading safe mode) — the "constant factor more work for
//     scalability" trade of contribution (4);
//  4. single-pass decoupled-look-back scan vs the two-pass blocked scan
//     vs a sequential scan;
//  5. fused byte-indexed DFA tables vs the split group-then-table
//     lookups, and the interesting-byte skip-ahead on top of them;
//  6. the sequential per-column convert loop vs the ConvertWorkers
//     column pool.
//
// Section numbers are stable identifiers that DESIGN.md cites, so the
// printed sections are [1], [4], [5] and [6].
func Ablation(cfg Config) error {
	if err := ablationContext(cfg); err != nil {
		return err
	}
	ablationScan(cfg)
	if err := ablationFastPath(cfg); err != nil {
		return err
	}
	return ablationConvertWorkers(cfg)
}

// ablationContext compares the total *work* (1-core modelled time) and
// the *scalable* time (wide modelled time) of ParPaRaw's multi-DFA
// approach against the safe-mode sequential pre-pass. The expected
// outcome is the paper's headline trade: ParPaRaw does a constant
// factor more work, yet wins as soon as the core count grows, because
// the pre-pass's serial term does not shrink (Amdahl).
func ablationContext(cfg Config) error {
	spec := cfg.specs()[0] // yelp: quoted input where context matters
	input := spec.Generate(cfg.Size, cfg.Seed)
	fmt.Fprintf(cfg.Out, "\n[1] context strategy: multi-DFA simulation vs sequential safe pre-pass (%s, %s)\n",
		spec.Name, mb(len(input)))

	il := baseline.NewInstantLoading(256, true)
	il.MeasureTiming = true
	if _, err := il.Load(input, spec.Schema); err != nil {
		return err
	}
	timing := il.LastTiming()

	fmt.Fprintf(cfg.Out, "%-8s %18s %18s\n", "cores", "ParPaRaw", "safe pre-pass")
	for _, w := range []int{1, 32, 3584} {
		wcfg := cfg
		wcfg.VirtualWorkers = w
		res, err := wcfg.parseModelled(input, core.Options{Schema: spec.Schema})
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "%-8d %16sms %16sms\n", w,
			ms(res.Stats.DeviceTime()), ms(timing.Modelled(w)))
	}
	fmt.Fprintf(cfg.Out, "(serial pre-pass term: %sms — the floor no core count removes)\n", ms(timing.SerialPass))
	return nil
}

// ablationFastPath quantifies the fused-table and skip-ahead fast
// paths on both workloads: fused+skipahead (the default), fused tables
// without skip-ahead, and the original split per-byte lookups. The
// expected shape: skip-ahead dominates on the text-heavy quoted
// workload (inside quotes only the closing quote is interesting, so
// per-byte work becomes per-structural-byte work), while the
// delimiter-dense taxi workload gains mostly from the fused single
// load per byte. Both fast paths are properties of the machine
// (dfa.Machine.SetFastPath).
func ablationFastPath(cfg Config) error {
	variants := []struct {
		name        string
		fused, skip bool
	}{
		{"fused+skipahead", true, true},
		{"fused", true, false},
		{"split", false, false},
	}
	for _, spec := range cfg.specs() {
		input := spec.Generate(cfg.Size, cfg.Seed)
		fmt.Fprintf(cfg.Out, "\n[5] fused tables & skip-ahead: %s (%s)\n", spec.Name, mb(len(input)))
		for _, v := range variants {
			res, err := cfg.parseModelled(input, core.Options{
				Machine: dfa.RFC4180().SetFastPath(v.fused, v.skip),
				Schema:  spec.Schema,
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(cfg.Out, "%-16s parse %10sms   tag %10sms   total %10sms\n",
				v.name, ms(res.Stats.Phases["parse"]), ms(res.Stats.Phases["tag"]),
				ms(res.Stats.DeviceTime()))
		}
	}
	return nil
}

// ablationConvertWorkers quantifies the parallel convert stage: the
// sequential per-column loop against the ConvertWorkers column pool.
// The pool converts the columns of the inline and vector modes, so the
// sweep parses inline-terminated; a record-tagged run converts record
// blocks across all its columns on the device instead, which the last
// row times. This axis is measured wall-clock on the real host device — in
// modelled-time mode the convert stage serialises its columns by design
// (the paper's kernel launches serialise on the device stream), so the
// pool is a host-substrate optimisation with nothing to model. The
// per-phase convert timer sums concurrent launch durations (device
// work, not wall time), so both it and the end-to-end wall time are
// reported: on a single-core host the wall times agree, and the pool's
// win grows with cores and with column count.
func ablationConvertWorkers(cfg Config) error {
	spec := cfg.specs()[1] // taxi: convert-heavy (many typed columns)
	input := spec.Generate(cfg.Size, cfg.Seed)
	fmt.Fprintf(cfg.Out, "\n[6] convert stage: sequential column loop vs ConvertWorkers pool (%s, %s; wall-clock on %d host workers)\n",
		spec.Name, mb(len(input)), device.New(device.Config{Workers: cfg.Workers}).Workers())
	reps := cfg.Reps
	if reps < 1 {
		reps = 1
	}
	counts := []int{1, 2, runtime.GOMAXPROCS(0), 0}
	seen := map[int]bool{}
	for _, w := range counts {
		if seen[w] {
			continue
		}
		seen[w] = true
		label, mode := fmt.Sprintf("workers=%d", w), css.InlineTerminated
		if w == 0 {
			label, mode = "tagged", css.RecordTagged
		}
		var bestWall, bestConvert time.Duration
		for r := 0; r < reps; r++ {
			res, err := core.Parse(input, core.Options{
				Schema:         spec.Schema,
				Device:         device.New(device.Config{Workers: cfg.Workers}),
				Mode:           mode,
				ConvertWorkers: w,
			})
			if err != nil {
				return err
			}
			if r == 0 || res.Stats.Duration < bestWall {
				bestWall = res.Stats.Duration
				bestConvert = res.Stats.Phases["convert"]
			}
		}
		fmt.Fprintf(cfg.Out, "%-12s convert(device) %10sms   total(wall) %10sms\n",
			label, ms(bestConvert), ms(bestWall))
	}
	return nil
}

// ablationScan compares the single-pass decoupled-look-back scan with
// the two-pass blocked scan and the sequential reference.
func ablationScan(cfg Config) {
	const n = 1 << 22
	src := make([]int64, n)
	for i := range src {
		src[i] = int64(i % 7)
	}
	dst := make([]int64, n)
	d := device.New(device.Config{Workers: cfg.Workers})

	fmt.Fprintf(cfg.Out, "\n[4] prefix scan: single-pass decoupled look-back vs two-pass vs sequential (%d elements)\n", n)
	begin := time.Now()
	scan.SinglePass(d, "ablate", scan.Sum[int64](), src, dst, false)
	fmt.Fprintf(cfg.Out, "single-pass %10sms\n", ms(time.Since(begin)))
	begin = time.Now()
	scan.Blocked(d, "ablate", scan.Sum[int64](), src, dst, false)
	fmt.Fprintf(cfg.Out, "two-pass    %10sms\n", ms(time.Since(begin)))
	begin = time.Now()
	scan.Sequential(scan.Sum[int64](), src, dst, false)
	fmt.Fprintf(cfg.Out, "sequential  %10sms\n", ms(time.Since(begin)))
}
