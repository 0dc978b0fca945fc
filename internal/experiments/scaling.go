package experiments

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/device"
)

// Scaling substantiates the §1/§6 claim that the algorithm "is able to
// scale to thousands of cores and beyond": the same input is parsed on
// modelled devices of increasing width and the modelled throughput is
// reported. The shape to reproduce is near-linear scaling until either
// the launch overheads or the largest single block bound the makespan.
// A second sweep over real host workers is reported for reference (on a
// single-core host it is necessarily flat).
func Scaling(cfg Config) error {
	widths := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 3584, 7168}
	if cfg.Quick {
		widths = []int{1, 32, 3584}
	}
	spec := cfg.specs()[0] // yelp
	input := spec.Generate(cfg.Size, cfg.Seed)

	fmt.Fprintf(cfg.Out, "\nmodelled throughput vs device width (%s, %s)\n", spec.Name, mb(len(input)))
	fmt.Fprintf(cfg.Out, "%-8s %14s %14s %10s\n", "cores", "device time", "rate", "speedup")
	var base float64
	for _, w := range widths {
		wcfg := cfg
		wcfg.VirtualWorkers = w
		res, err := wcfg.parseModelled(input, core.Options{Schema: spec.Schema})
		if err != nil {
			return err
		}
		total := res.Stats.DeviceTime()
		if base == 0 {
			base = float64(total)
		}
		fmt.Fprintf(cfg.Out, "%-8d %12sms %14s %9.1fx\n",
			w, ms(total), rate(res.Stats.InputBytes, total), base/float64(total))
	}

	// Real-worker sweep (wall clock), for transparency about the host.
	maxW := runtime.GOMAXPROCS(0)
	fmt.Fprintf(cfg.Out, "\nwall-clock vs real host workers (host has %d)\n", maxW)
	fmt.Fprintf(cfg.Out, "%-8s %14s %14s\n", "workers", "duration", "rate")
	for w := 1; w <= maxW; w *= 2 {
		d := device.New(device.Config{Workers: w})
		res, err := core.Parse(input, core.Options{Schema: spec.Schema, Device: d})
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "%-8d %12sms %14s\n", w, ms(res.Stats.Duration), rate(res.Stats.InputBytes, res.Stats.Duration))
	}
	return nil
}
