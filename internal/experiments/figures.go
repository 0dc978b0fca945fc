package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/css"
	"repro/internal/workload"
)

// Fig9 reproduces Figure 9: the time spent on the individual processing
// steps (parse, scan, tag, partition, convert) as a function of chunk
// size, for both datasets. The paper's findings to reproduce: tiny
// chunks (≤15 B) degrade parsing/tagging and inflate the scan share;
// the curve flattens for reasonably large chunks; the best configuration
// is 31 bytes per chunk; taxi spends a visibly larger share in type
// conversion than yelp.
func Fig9(cfg Config) error {
	chunkSizes := []int{4, 8, 15, 16, 24, 31, 32, 48, 64}
	if cfg.Quick {
		chunkSizes = []int{8, 31, 64}
	}
	for _, spec := range cfg.specs() {
		input := spec.Generate(cfg.Size, cfg.Seed)
		fmt.Fprintf(cfg.Out, "\n(%s, %s, %d virtual cores) modelled per-step time in ms\n",
			spec.Name, mb(len(input)), cfg.VirtualWorkers)
		fmt.Fprintf(cfg.Out, "%-8s %10s %10s %10s %10s %10s %10s\n",
			"chunk", "parse", "scan", "tag", "partition", "convert", "total")
		for _, chunk := range chunkSizes {
			res, err := cfg.parseModelled(input, core.Options{Schema: spec.Schema, ChunkSize: chunk})
			if err != nil {
				return err
			}
			p := res.Stats.Phases
			fmt.Fprintf(cfg.Out, "%-8d %10s %10s %10s %10s %10s %10s\n",
				chunk, ms(p["parse"]), ms(p["scan"]), ms(p["tag"]), ms(p["partition"]), ms(p["convert"]),
				ms(res.Stats.DeviceTime()))
		}
	}
	return nil
}

// Fig10 reproduces Figure 10: parsing rate as a function of input size.
// The shape to reproduce: the rate grows with input size and saturates;
// small inputs pay the per-kernel launch overhead (the paper estimates
// 5-10 µs per launch), so ~5 MB inputs reach roughly 50% of peak.
func Fig10(cfg Config) error {
	sizes := []int{1 << 20, 2 << 20, 4 << 20, 8 << 20}
	for s := 16 << 20; s <= cfg.Size; s *= 2 {
		sizes = append(sizes, s)
	}
	if cfg.Quick {
		sizes = []int{1 << 20, 4 << 20, cfg.Size}
	}
	fmt.Fprintf(cfg.Out, "\nmodelled parsing rate (%d virtual cores)\n", cfg.VirtualWorkers)
	fmt.Fprintf(cfg.Out, "%-10s %18s %18s\n", "input", "yelp", "NYC taxi")
	for _, size := range sizes {
		fmt.Fprintf(cfg.Out, "%-10s", mb(size))
		for _, spec := range cfg.specs() {
			input := spec.Generate(size, cfg.Seed)
			res, err := cfg.parseModelled(input, core.Options{Schema: spec.Schema})
			if err != nil {
				return err
			}
			fmt.Fprintf(cfg.Out, " %18s", rate(res.Stats.InputBytes, res.Stats.DeviceTime()))
		}
		fmt.Fprintln(cfg.Out)
	}
	return nil
}

// Fig11 reproduces Figure 11: the per-step breakdown for the three
// tagging modes (left) and for skewed inputs containing one giant
// record (right). The paper finds record-tagged the slowest mode; here
// it is the fastest: its partition phase writes each field's input
// start and length and moves no data, so its tag phase reads 0, while
// the other two move every kept byte and index by two passes over the
// column data. 4 MiB wall-clock parses (fixed schema, 2-vCPU Xeon),
// tagged / inline / delimited MB/s: taxi 70 / 59 / 57, yelp 216 / 142 /
// 138 with per-symbol tags; taxi 69 / 57 / 57, yelp 303 / 121 / 117
// with lengths; taxi 139 / 115 / 118, yelp 472 / 441 / 317 with
// offsets and word-at-a-time mark indexes, on a later parse phase; taxi
// 117 / 79 / 77, yelp 337 / 286 / 268 with fields indexed in the input,
// in a slower period of the host (the offsets' tagged taxi read 82
// there). A single record of ~40% of the input does not break
// throughput.
func Fig11(cfg Config) error {
	modes := []css.Mode{css.RecordTagged, css.InlineTerminated, css.VectorDelimited}

	fmt.Fprintf(cfg.Out, "\n(left) tagging modes, modelled ms (%d virtual cores)\n", cfg.VirtualWorkers)
	fmt.Fprintf(cfg.Out, "%-12s %-6s %10s %10s %10s %10s %10s %10s\n",
		"mode", "data", "parse", "scan", "tag", "partition", "convert", "total")
	for _, mode := range modes {
		for _, spec := range cfg.specs() {
			input := spec.Generate(cfg.Size, cfg.Seed)
			res, err := cfg.parseModelled(input, core.Options{Schema: spec.Schema, Mode: mode})
			if err != nil {
				return err
			}
			p := res.Stats.Phases
			fmt.Fprintf(cfg.Out, "%-12s %-6s %10s %10s %10s %10s %10s %10s\n",
				mode, spec.Name, ms(p["parse"]), ms(p["scan"]), ms(p["tag"]), ms(p["partition"]), ms(p["convert"]),
				ms(res.Stats.DeviceTime()))
		}
	}

	fmt.Fprintf(cfg.Out, "\n(right) skewed input: one record of ~40%% of the input\n")
	fmt.Fprintf(cfg.Out, "%-14s %12s %12s %10s\n", "data", "original", "skewed", "ratio")
	for _, spec := range cfg.specs() {
		input := spec.Generate(cfg.Size, cfg.Seed)
		orig, err := cfg.parseModelled(input, core.Options{Schema: spec.Schema})
		if err != nil {
			return err
		}
		giant := cfg.Size * 2 / 5
		skewSpec := workload.Skewed(spec, giant)
		skewInput := skewSpec.Generate(cfg.Size, cfg.Seed)
		skew, err := cfg.parseModelled(skewInput, core.Options{Schema: spec.Schema})
		if err != nil {
			return err
		}
		ot, st := orig.Stats.DeviceTime(), skew.Stats.DeviceTime()
		// Normalise to per-byte cost: the skewed input has a different size.
		on := float64(ot) / float64(len(input))
		sn := float64(st) / float64(len(skewInput))
		fmt.Fprintf(cfg.Out, "%-14s %10sms %10sms %9.2fx\n", spec.Name, ms(ot), ms(st), sn/on)
	}
	return nil
}
