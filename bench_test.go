package parparaw

// This file is the benchmark harness of deliverable (d): one bench per
// table/figure of the paper's evaluation (§5), plus ablation benches for
// the design choices DESIGN.md calls out. Wall-clock benchmark numbers
// on a few-core host cannot reproduce the paper's absolute GPU rates;
// the *shapes* (which configuration wins, where curves bend) are the
// reproduction target. cmd/experiments regenerates the figures with
// modelled many-core timing; these benches keep the same sweeps
// measurable under `go test -bench`.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/baseline"
	"repro/internal/convert"
	"repro/internal/core"
	"repro/internal/css"
	"repro/internal/device"
	"repro/internal/dfa"
	"repro/internal/scan"
	"repro/internal/statevec"
	"repro/internal/workload"
)

// benchSize keeps a full -bench=. run tractable on small hosts.
const benchSize = 1 << 20

var benchSpecs = []workload.Spec{workload.Yelp(), workload.Taxi()}

func benchParse(b *testing.B, spec workload.Spec, opts core.Options) {
	input := spec.Generate(benchSize, 42)
	b.SetBytes(int64(len(input)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Parse(input, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParse is the headline single-shot parse benchmark, tracked
// in BENCH_*.json: allocs/op is the GC-pressure trajectory and the
// device-bytes metric is the peak arena footprint (Stats.DeviceBytes).
// The arena is reused across iterations, as a steady-state ingest
// service would hold it.
func BenchmarkParse(b *testing.B) {
	for _, spec := range benchSpecs {
		b.Run(spec.Name, func(b *testing.B) {
			input := spec.Generate(benchSize, 42)
			arena := device.NewArena()
			b.SetBytes(int64(len(input)))
			b.ReportAllocs()
			b.ResetTimer()
			var deviceBytes int64
			for i := 0; i < b.N; i++ {
				arena.Reset()
				res, err := core.Parse(input, core.Options{Schema: spec.Schema, Arena: arena})
				if err != nil {
					b.Fatal(err)
				}
				deviceBytes = res.Stats.DeviceBytes
			}
			b.ReportMetric(float64(deviceBytes), "device-bytes")
		})
	}
}

// benchWorkload is the tracked per-workload parse benchmark body: MB/s
// is the paper's headline metric, allocs/op the GC-pressure trajectory,
// device-bytes the peak arena footprint, and convert-ns the convert
// phase's device time (the stage the ConvertWorkers pool and the
// dirty-alloc scatter target; under a worker pool it sums concurrent
// launch durations, i.e. device work rather than wall time). The arena
// is reused across iterations, as a steady-state ingest service would
// hold it.
func benchWorkload(b *testing.B, spec workload.Spec, opts core.Options) {
	input := spec.Generate(benchSize, 42)
	arena := device.NewArena()
	opts.Arena = arena
	b.SetBytes(int64(len(input)))
	b.ReportAllocs()
	b.ResetTimer()
	var deviceBytes int64
	var convertNs float64
	for i := 0; i < b.N; i++ {
		arena.Reset()
		res, err := core.Parse(input, opts)
		if err != nil {
			b.Fatal(err)
		}
		deviceBytes = res.Stats.DeviceBytes
		convertNs += float64(res.Stats.Phases["convert"].Nanoseconds())
	}
	b.ReportMetric(float64(deviceBytes), "device-bytes")
	b.ReportMetric(convertNs/float64(b.N), "convert-ns")
}

// BenchmarkParseYelp tracks the text-heavy quoted workload (§5.1), the
// one the interesting-byte skip-ahead targets: long quoted runs where
// only the closing quote is interesting.
func BenchmarkParseYelp(b *testing.B) {
	spec := workload.Yelp()
	benchWorkload(b, spec, core.Options{Schema: spec.Schema})
}

// BenchmarkParseTaxi tracks the short-field numerical workload (§5.1),
// which stresses the fused per-byte stepping and the convert phase.
func BenchmarkParseTaxi(b *testing.B) {
	spec := workload.Taxi()
	benchWorkload(b, spec, core.Options{Schema: spec.Schema})
}

// BenchmarkParseJSONL tracks the JSON-Lines workload — the first
// non-delimiter grammar on the trajectory: alternating key/value
// columns, quoted strings with raw escapes, and opaque nested
// containers. The dfa-states metric records |S|, the multi-DFA cost
// factor the jsonl grammar pays for depth tracking.
func BenchmarkParseJSONL(b *testing.B) {
	spec := workload.JSONLines()
	m, err := dfa.NewJSONL(dfa.JSONLOptions{})
	if err != nil {
		b.Fatal(err)
	}
	benchWorkload(b, spec, core.Options{Machine: m, Schema: spec.Schema})
	b.ReportMetric(float64(m.NumStates()), "dfa-states")
}

// BenchmarkParseWeblog tracks the W3C extended-log workload: directive
// lines that vanish without record footprint, quoted user-agents whose
// backslash escapes unfold during parsing, and mixed LF/CRLF endings.
func BenchmarkParseWeblog(b *testing.B) {
	spec := workload.Weblog()
	m := dfa.Weblog()
	benchWorkload(b, spec, core.Options{Machine: m, Schema: spec.Schema})
	b.ReportMetric(float64(m.NumStates()), "dfa-states")
}

// BenchmarkParseSkewed tracks the skewed workload (Figure 11 right): one
// record of ~40% of the input, the degenerate case for load balance and
// the best case for skip-ahead (one giant quoted field).
func BenchmarkParseSkewed(b *testing.B) {
	base := workload.Yelp()
	spec := workload.Skewed(base, benchSize*2/5)
	benchWorkload(b, spec, core.Options{Schema: base.Schema})
}

// BenchmarkConvertWorkers sweeps the convert-phase column pool on the
// convert-heavy taxi workload: workers=1 is the sequential per-column
// loop, the larger counts overlap whole columns across the device's
// idle workers. The pool converts the inline and vector modes' columns
// (a record-tagged run walks record blocks across its columns
// instead), so the sweep parses inline-terminated. On a single-core
// host the sweep is necessarily flat; the convert-ns metric still
// records the stage's device time for the BENCH_*.json trajectory.
func BenchmarkConvertWorkers(b *testing.B) {
	spec := workload.Taxi()
	for _, w := range dedupWorkerCounts(1, 2, device.Default().Workers()) {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			benchWorkload(b, spec, core.Options{Schema: spec.Schema, Mode: css.InlineTerminated, ConvertWorkers: w})
		})
	}
}

// pushdownBenchWhere returns the Where lists of the pushdown ablation,
// named by their approximate selectivity against the workload's value
// distributions (taxi: vendor_id ∈ {1,2}, fare_amount uniform over
// [0,60); yelp: stars ∈ 1..5, useful ∈ 0..49, funny ∈ 0..19).
func pushdownBenchWhere(spec string) []struct {
	name  string
	where []convert.Predicate
} {
	type ws = struct {
		name  string
		where []convert.Predicate
	}
	switch spec {
	case "taxi":
		return []ws{
			{"sel100", nil},
			{"sel50", []convert.Predicate{{Column: 0, Op: convert.PredEq, Value: []byte("1")}}},
			{"sel10", []convert.Predicate{{Column: 10, Op: convert.PredFloatRange, FloatLo: 0, FloatHi: 5.99}}},
			{"sel1", []convert.Predicate{{Column: 10, Op: convert.PredFloatRange, FloatLo: 0, FloatHi: 0.59}}},
		}
	default: // yelp
		return []ws{
			{"sel100", nil},
			{"sel50", []convert.Predicate{{Column: 4, Op: convert.PredIntRange, IntLo: 0, IntHi: 24}}},
			{"sel10", []convert.Predicate{{Column: 4, Op: convert.PredIntRange, IntLo: 0, IntHi: 4}}},
			{"sel1", []convert.Predicate{
				{Column: 3, Op: convert.PredEq, Value: []byte("1")},
				{Column: 5, Op: convert.PredIntRange, IntLo: 0, IntHi: 0},
			}},
		}
	}
}

// pushdownBenchSelect returns the projection shapes of the pushdown
// ablation: every column, roughly half, and one narrow column.
func pushdownBenchSelect(spec string) []struct {
	name string
	sel  []int
} {
	type ps = struct {
		name string
		sel  []int
	}
	switch spec {
	case "taxi": // 17 columns
		return []ps{
			{"full-cols", nil},
			{"half-cols", []int{0, 1, 3, 4, 5, 6, 10, 16}},
			{"single-col", []int{10}},
		}
	default: // yelp, 9 columns
		return []ps{
			{"full-cols", nil},
			{"half-cols", []int{0, 3, 4, 8}},
			{"single-col", []int{3}},
		}
	}
}

// BenchmarkAblationPushdown quantifies projection and predicate
// pushdown (ScanOptions) on the full pipeline: selectivity 100/50/10/1%
// × full/half/single-column projection, per workload. sel100/full-cols
// is the unchanged full parse and doubles as the baseline; every other
// cell prunes rows before partitioning and suppresses unselected
// columns' symbol movement. The rows-pruned and bytes-skipped metrics
// record how much work the plan proved unnecessary; device-bytes shows
// the arena footprint shrinking with the moved volume.
func BenchmarkAblationPushdown(b *testing.B) {
	for _, spec := range benchSpecs {
		input := spec.Generate(benchSize, 42)
		for _, ws := range pushdownBenchWhere(spec.Name) {
			for _, ps := range pushdownBenchSelect(spec.Name) {
				b.Run(fmt.Sprintf("%s/%s/%s", spec.Name, ws.name, ps.name), func(b *testing.B) {
					arena := device.NewArena()
					opts := core.Options{
						Schema:        spec.Schema,
						Arena:         arena,
						Where:         ws.where,
						SelectColumns: ps.sel,
					}
					b.SetBytes(int64(len(input)))
					b.ReportAllocs()
					b.ResetTimer()
					var st core.Stats
					for i := 0; i < b.N; i++ {
						arena.Reset()
						res, err := core.Parse(input, opts)
						if err != nil {
							b.Fatal(err)
						}
						st = res.Stats
					}
					b.ReportMetric(float64(st.DeviceBytes), "device-bytes")
					b.ReportMetric(float64(st.RowsPruned), "rows-pruned")
					b.ReportMetric(float64(st.BytesSkipped), "bytes-skipped")
				})
			}
		}
	}
}

// BenchmarkConvertParsers times each numeric/temporal field parser on
// representative field shapes — the per-parser ns trajectory behind the
// convert phase's device time. Each op parses every field in the shape
// set once; the ns/field metric (recorded by cmd/benchjson) divides
// that out.
func BenchmarkConvertParsers(b *testing.B) {
	fields := func(ss ...string) [][]byte {
		out := make([][]byte, len(ss))
		for i, s := range ss {
			out[i] = []byte(s)
		}
		return out
	}
	intFields := fields("142", "-7", "2009", "123456789", "35102")
	floatFields := fields("1.5", "142.35", "-73.987654", "0.5", "199.99", "12345.678901")
	tsFields := fields("2009-01-04 02:52:00", "2018-06-15 13:45:09.123456", "1999-12-31T23:59:59.5")
	dateFields := fields("2009-01-04", "2018-06-15", "1999-12-31")

	runInt := func(b *testing.B, fn func([]byte) (int64, error), fs [][]byte) {
		b.Helper()
		var sink int64
		for i := 0; i < b.N; i++ {
			for _, f := range fs {
				v, _ := fn(f)
				sink += v
			}
		}
		benchSink = sink
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(fs)), "ns/field")
	}
	runFloat := func(b *testing.B, fn func([]byte) (float64, error), fs [][]byte) {
		b.Helper()
		var sink float64
		for i := 0; i < b.N; i++ {
			for _, f := range fs {
				v, _ := fn(f)
				sink += v
			}
		}
		benchSink = int64(sink)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(fs)), "ns/field")
	}

	b.Run("int64", func(b *testing.B) { runInt(b, convert.ParseInt64, intFields) })
	b.Run("float64", func(b *testing.B) { runFloat(b, convert.ParseFloat64, floatFields) })
	b.Run("timestamp", func(b *testing.B) { runInt(b, convert.ParseTimestampMicros, tsFields) })
	b.Run("date32", func(b *testing.B) { runInt(b, convert.ParseDate32, dateFields) })
}

// benchSink defeats dead-code elimination in the parser microbenches.
var benchSink int64

// BenchmarkAblationFastPath quantifies the fused-table and skip-ahead
// fast paths per workload: fused+skip (the default), fused without
// skip-ahead, and the original split per-byte lookups, each a machine
// with its fast paths set (dfa.Machine.SetFastPath).
func BenchmarkAblationFastPath(b *testing.B) {
	variants := []struct {
		name        string
		fused, skip bool
	}{
		{"fused+skipahead", true, true},
		{"fused", true, false},
		{"split", false, false},
	}
	for _, spec := range benchSpecs {
		for _, v := range variants {
			b.Run(fmt.Sprintf("%s/%s", spec.Name, v.name), func(b *testing.B) {
				benchWorkload(b, spec, core.Options{
					Machine: dfa.RFC4180().SetFastPath(v.fused, v.skip),
					Schema:  spec.Schema,
				})
			})
		}
	}
}

// BenchmarkEngineParse is the serving-layer benchmark: one Engine
// compiled once, Parse called repeatedly — the DFA, validated options,
// and device are amortised across calls and the arena is recycled
// through the engine's pool, so allocs/op here is what a steady-state
// service pays per request. It must track BenchmarkParse's reused-arena
// allocs/op (~400), not the cold-start figure.
func BenchmarkEngineParse(b *testing.B) {
	for _, spec := range benchSpecs {
		b.Run(spec.Name, func(b *testing.B) {
			input := spec.Generate(benchSize, 42)
			e, err := NewEngine(Options{Schema: schemaFromInternal(spec.Schema)})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(input)))
			b.ReportAllocs()
			b.ResetTimer()
			var deviceBytes int64
			for i := 0; i < b.N; i++ {
				res, err := e.Parse(input)
				if err != nil {
					b.Fatal(err)
				}
				deviceBytes = res.Stats.DeviceBytes
			}
			b.ReportMetric(float64(deviceBytes), "device-bytes")
		})
	}
}

// BenchmarkEngineColdStart compiles a fresh Engine for every parse —
// the per-call setup (option validation, device resolution, pristine
// arena) that BenchmarkEngineParse amortises away. The allocs/op delta against BenchmarkEngineParse is
// the compile-once dividend.
func BenchmarkEngineColdStart(b *testing.B) {
	spec := benchSpecs[0]
	input := spec.Generate(benchSize, 42)
	b.SetBytes(int64(len(input)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := NewEngine(Options{Schema: schemaFromInternal(spec.Schema)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Parse(input); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineParseParallel drives one Engine from GOMAXPROCS
// goroutines — the concurrent-callers serving scenario. Each caller
// checks a private arena out of the pool, so throughput should scale
// until the simulated device's workers saturate.
func BenchmarkEngineParseParallel(b *testing.B) {
	spec := benchSpecs[0]
	input := spec.Generate(benchSize, 42)
	e, err := NewEngine(Options{Schema: schemaFromInternal(spec.Schema)})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(input)))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := e.Parse(input); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStreamSteadyState measures the streaming path with its
// shared, per-partition-recycled arena: allocs/op here is what a
// sustained ingest pipeline pays per 1 MiB of input.
func BenchmarkStreamSteadyState(b *testing.B) {
	spec := benchSpecs[0]
	input := spec.Generate(benchSize, 42)
	b.SetBytes(int64(len(input)))
	b.ReportAllocs()
	b.ResetTimer()
	var deviceBytes int64
	for i := 0; i < b.N; i++ {
		res, err := Stream(input, StreamOptions{StreamConfig: StreamConfig{PartitionSize: 128 << 10}})
		if err != nil {
			b.Fatal(err)
		}
		deviceBytes = res.Stats.DeviceBytes
	}
	b.ReportMetric(float64(deviceBytes), "device-bytes")
}

// BenchmarkStreamScaling sweeps the cross-partition ring depth
// (Options.InFlight) over both workloads — the multi-core scaling
// trajectory tracked in BENCH_*.json. Each sub-bench reports the host
// core count ("cores") and the ring depth ("in-flight") next to MB/s,
// so recorded runs are interpretable: on a single-core host the curve
// is flat (the ring still runs, but partitions time-slice one CPU);
// real speedup needs GOMAXPROCS >= the depth.
func BenchmarkStreamScaling(b *testing.B) {
	for _, spec := range benchSpecs {
		input := spec.Generate(benchSize, 42)
		schema := schemaFromInternal(spec.Schema)
		for _, inFlight := range dedupWorkerCounts(1, 2, 4, runtime.GOMAXPROCS(0)) {
			b.Run(fmt.Sprintf("%s/inflight=%d", spec.Name, inFlight), func(b *testing.B) {
				b.SetBytes(int64(len(input)))
				b.ReportAllocs()
				b.ResetTimer()
				var deviceBytes int64
				for i := 0; i < b.N; i++ {
					res, err := Stream(input, StreamOptions{
						Options:      Options{Schema: schema, InFlight: inFlight},
						StreamConfig: StreamConfig{PartitionSize: 128 << 10},
					})
					if err != nil {
						b.Fatal(err)
					}
					deviceBytes = res.Stats.DeviceBytes
				}
				b.ReportMetric(float64(deviceBytes), "device-bytes")
				b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
				b.ReportMetric(float64(inFlight), "in-flight")
			})
		}
	}
}

// BenchmarkFig9ChunkSize sweeps the chunk size (Figure 9): tiny chunks
// must degrade throughput; the curve flattens for reasonable sizes.
func BenchmarkFig9ChunkSize(b *testing.B) {
	for _, spec := range benchSpecs {
		for _, chunk := range []int{4, 8, 16, 31, 64} {
			b.Run(fmt.Sprintf("%s/chunk=%d", spec.Name, chunk), func(b *testing.B) {
				benchParse(b, spec, core.Options{Schema: spec.Schema, ChunkSize: chunk})
			})
		}
	}
}

// BenchmarkFig10InputSize sweeps the input size (Figure 10): the rate
// grows with input size as fixed per-launch overheads amortise.
func BenchmarkFig10InputSize(b *testing.B) {
	for _, spec := range benchSpecs {
		for _, size := range []int{64 << 10, 256 << 10, 1 << 20, 4 << 20} {
			b.Run(fmt.Sprintf("%s/size=%dKB", spec.Name, size>>10), func(b *testing.B) {
				input := spec.Generate(size, 42)
				b.SetBytes(int64(len(input)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := core.Parse(input, core.Options{Schema: spec.Schema}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig11TaggingModes compares the three tagging representations
// (Figure 11 left). The paper finds record-tagged the slowest, because
// its tags move the most metadata; here it is the fastest, because it
// moves no data (the partition's index walk writes each field's input
// start and length) while the other two modes move every kept byte
// into their CSSs and index them by a pass over the column data.
func BenchmarkFig11TaggingModes(b *testing.B) {
	for _, spec := range benchSpecs {
		for _, mode := range []TaggingMode{RecordTagged, InlineTerminated, VectorDelimited} {
			b.Run(fmt.Sprintf("%s/%v", spec.Name, mode), func(b *testing.B) {
				input := spec.Generate(benchSize, 42)
				b.SetBytes(int64(len(input)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := Parse(input, Options{Mode: mode}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig11Skewed parses inputs with one record of ~40% of the
// input (Figure 11 right): throughput must not collapse.
func BenchmarkFig11Skewed(b *testing.B) {
	for _, spec := range benchSpecs {
		skew := workload.Skewed(spec, benchSize*2/5)
		b.Run(skew.Name, func(b *testing.B) {
			input := skew.Generate(benchSize, 42)
			b.SetBytes(int64(len(input)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Parse(input, core.Options{Schema: spec.Schema}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig12PartitionSize streams the input end-to-end at different
// partition sizes (Figure 12): the pipeline mechanics, without the
// modelled transfers the fig12 experiment prices.
func BenchmarkFig12PartitionSize(b *testing.B) {
	spec := benchSpecs[0]
	input := spec.Generate(benchSize, 42)
	for _, part := range []int{32 << 10, 128 << 10, 512 << 10} {
		b.Run(fmt.Sprintf("partition=%dKB", part>>10), func(b *testing.B) {
			b.SetBytes(int64(len(input)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Stream(input, StreamOptions{StreamConfig: StreamConfig{PartitionSize: part}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig13Comparison runs every loader on both datasets (Figure
// 13). Loaders whose strategy cannot handle a dataset (Instant Loading
// and naive splitting on yelp) skip, mirroring the '×' in the figure.
func BenchmarkFig13Comparison(b *testing.B) {
	// Instant Loading gets a fixed worker count: with a single worker
	// there are no chunk boundaries to mis-synchronise, which would hide
	// its quoted-input failure mode on single-core hosts.
	loaders := []baseline.Loader{
		baseline.NewSequential(),
		baseline.NewNaiveSplit(),
		baseline.NewInstantLoading(8, false),
		baseline.NewInstantLoading(8, true),
		baseline.NewQuoteCount(nil),
	}
	for _, spec := range benchSpecs {
		input := spec.Generate(benchSize, 42)
		b.Run(fmt.Sprintf("%s/parparaw", spec.Name), func(b *testing.B) {
			b.SetBytes(int64(len(input)))
			for i := 0; i < b.N; i++ {
				if _, err := core.Parse(input, core.Options{Schema: spec.Schema}); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, l := range loaders {
			b.Run(fmt.Sprintf("%s/%s", spec.Name, l.Name()), func(b *testing.B) {
				if _, err := l.Load(input, spec.Schema); err != nil {
					b.Skipf("unsupported: %v", err)
				}
				b.SetBytes(int64(len(input)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := l.Load(input, spec.Schema); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkScalingWorkers sweeps real host workers (§6 scalability; on
// a single-core host this is necessarily flat — cmd/experiments
// -exp scaling reports the modelled many-core sweep).
func BenchmarkScalingWorkers(b *testing.B) {
	spec := benchSpecs[0]
	input := spec.Generate(benchSize, 42)
	maxW := device.Default().Workers()
	for w := 1; w <= maxW; w *= 2 {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			d := device.New(device.Config{Workers: w})
			b.SetBytes(int64(len(input)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Parse(input, core.Options{Schema: spec.Schema, Device: d}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationScan compares the single-pass decoupled-look-back
// scan, the two-pass blocked scan, and the sequential reference (§2).
func BenchmarkAblationScan(b *testing.B) {
	const n = 1 << 20
	src := make([]int64, n)
	for i := range src {
		src[i] = int64(i % 7)
	}
	dst := make([]int64, n)
	d := device.Default()
	b.Run("single-pass", func(b *testing.B) {
		b.SetBytes(n * 8)
		for i := 0; i < b.N; i++ {
			scan.SinglePass(d, "bench", scan.Sum[int64](), src, dst, false)
		}
	})
	b.Run("two-pass", func(b *testing.B) {
		b.SetBytes(n * 8)
		for i := 0; i < b.N; i++ {
			scan.Blocked(d, "bench", scan.Sum[int64](), src, dst, false)
		}
	})
	b.Run("sequential", func(b *testing.B) {
		b.SetBytes(n * 8)
		for i := 0; i < b.N; i++ {
			scan.Sequential(scan.Sum[int64](), src, dst, false)
		}
	})
}

// BenchmarkStateVectorScan measures the start-state scan over packed
// state-transition vectors — the step that makes context inference
// parallel (§3.1, Figure 3) — over 2^16 chunk words as parseVectors
// writes them.
func BenchmarkStateVectorScan(b *testing.B) {
	m := dfa.RFC4180()
	const chunks = 1 << 16
	input := benchSpecs[0].Generate(chunks*31, 42)
	words := make([]statevec.Word, chunks)
	for c := range words {
		lo := c * 31
		hi := min(lo+31, len(input))
		words[c] = m.ChunkWord(input[lo:hi])
	}
	starts := make([]uint8, chunks)
	d := device.Default()
	arena := device.NewArena()
	b.SetBytes(chunks * 31)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena.Reset()
		statevec.StartStates(d, arena, "bench", m.NumStates(), words, m.Start(), starts)
	}
}
