package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"time"

	parparaw "repro"
	"repro/internal/columnar"
	"repro/internal/convert"
	"repro/internal/workload"
)

// instantBus is a delay-free interconnect: the benchmark measures the
// host pipeline, not the modelled PCIe link.
var instantBus = parparaw.BusConfig{Latency: -1, TimeScale: 1e9}

// runBulk parses one generated input with Engine.Parse, over and over.
func runBulk(r *run, spec workload.Spec) error {
	input := spec.Generate(r.scale.bulk, r.seed)
	schema := publicSchema(spec.Schema)

	var engine *parparaw.Engine
	var first *parparaw.Result
	err := r.setup(func() error {
		e, err := parparaw.NewEngine(parparaw.Options{Schema: schema})
		if err != nil {
			return err
		}
		res, err := e.Parse(input)
		engine, first = e, res
		return err
	}, func() { engine, first = nil, nil })
	if err != nil {
		return err
	}
	r.check(checkTables([]*parparaw.Table{first.Table}, schema, bytes.NewReader(input), ','))
	want := digest(first.Table)
	r.rep.Digest = want
	first = nil

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	samples := r.closedLoop("bulk.parse", func(s *sample) error {
		res, err := engine.Parse(input)
		s.end = time.Now()
		if err != nil {
			return err
		}
		s.bytes = int64(len(input))
		s.program = res.Stats.Duration
		s.phases = res.Stats.Phases
		s.device = res.Stats.DeviceBytes
		if got := digest(res.Table); got != want {
			return fmt.Errorf("output digest %s differs from the first operation's %s", got, want)
		}
		return nil
	})
	runtime.ReadMemStats(&after)

	rss, err := peakRSS("self")
	if err != nil {
		return err
	}
	r.endToEndMetrics(samples, rss)
	if !r.trace {
		return nil
	}
	r.opLayerMetrics(samples)
	r.runtimeMetrics(&before, &after, len(samples))
	var phases []map[string]time.Duration
	var walls []time.Duration
	for _, s := range samples {
		if !s.failed {
			phases = append(phases, s.phases)
			walls = append(walls, s.latency())
		}
	}
	r.coreMetrics(phases, walls)
	r.set("op.cold_penalty_ms", 1e3*median(r.setups)-median(durations(walls)))
	// Bulk parses never cross the streaming ring; this probe streams the
	// same input through it in four partitions, so a ring change shows
	// here while bulk mb_per_s should not move.
	stats, waits, err := ringProbe(engine, [][]byte{input}, max(len(input)/4, 1))
	if err != nil {
		return err
	}
	r.ringMetrics(stats, waits)
	r.cacheMetricsAbsent()
	r.convertMetrics()
	return nil
}

// runStream streams a generated block, read twice through a plain
// io.Reader, with Engine.StreamReader.
func runStream(r *run, spec workload.Spec) error {
	block := spec.Generate(r.scale.streamBlock, r.seed)
	schema := publicSchema(spec.Schema)
	passes := [][]byte{block, block}
	config := func() parparaw.StreamConfig {
		return parparaw.StreamConfig{PartitionSize: r.scale.partition, Bus: parparaw.NewBus(instantBus)}
	}

	var engine *parparaw.Engine
	var first *parparaw.StreamResult
	err := r.setup(func() error {
		e, err := parparaw.NewEngine(parparaw.Options{Schema: schema})
		if err != nil {
			return err
		}
		res, err := e.StreamReader(&passReader{passes: passes}, config())
		engine, first = e, res
		return err
	}, func() { engine, first = nil, nil })
	if err != nil {
		return err
	}
	r.check(checkTables(first.Tables, schema, io.MultiReader(bytes.NewReader(block), bytes.NewReader(block)), ','))
	want := digest(first.Tables...)
	r.rep.Digest = want
	first = nil

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	samples := r.closedLoop("stream.op", func(s *sample) error {
		src := &passReader{passes: passes, timed: s.traced}
		res, err := engine.StreamReader(src, config())
		s.end = time.Now()
		if err != nil {
			return err
		}
		s.bytes = int64(2 * len(block))
		s.program = res.Stats.Duration
		st := res.Stats // a copy: the sample must not keep the tables alive
		s.stream = &st
		s.device = res.Stats.DeviceBytes
		if s.traced {
			s.sourceWait = src.wait
			for _, rd := range src.reads {
				r.tracer.add(r.tracer.newID(), s.span, "source.read", rd.start, rd.end, map[string]any{"bytes": rd.n})
			}
		}
		if got := digest(res.Tables...); got != want {
			return fmt.Errorf("output digest %s differs from the first operation's %s", got, want)
		}
		return nil
	})
	runtime.ReadMemStats(&after)

	rss, err := peakRSS("self")
	if err != nil {
		return err
	}
	r.endToEndMetrics(samples, rss)
	if !r.trace {
		return nil
	}
	r.opLayerMetrics(samples)
	r.runtimeMetrics(&before, &after, len(samples))
	var stats []parparaw.StreamStats
	var waits, walls []time.Duration
	for _, s := range samples {
		if s.failed {
			continue
		}
		stats = append(stats, *s.stream)
		walls = append(walls, s.latency())
		if s.traced {
			waits = append(waits, s.sourceWait)
		}
	}
	r.ringMetrics(stats, waits)
	r.set("op.cold_penalty_ms", 1e3*median(r.setups)-median(durations(walls)))
	// StreamStats carries no kernel-phase split, so the core layer is
	// read from Engine.Parse over one partition's worth of the block:
	// the same compiled plan the ring runs per partition.
	part := block[:min(len(block), r.scale.partition)]
	part = part[:bytes.LastIndexByte(part, '\n')+1]
	var phases []map[string]time.Duration
	var pwalls []time.Duration
	for i := 0; i < probeRuns; i++ {
		t := time.Now()
		res, err := engine.Parse(part)
		if err != nil {
			return err
		}
		pwalls = append(pwalls, time.Since(t))
		phases = append(phases, res.Stats.Phases)
	}
	r.coreMetrics(phases, pwalls)
	r.cacheMetricsAbsent()
	r.convertMetrics()
	return nil
}

// probeRuns is how many times a layer probe repeats; its metrics are
// medians.
const probeRuns = 5

// ringProbe streams inputs through the engine's ring probeRuns times
// and returns each run's StreamStats and time spent in the reader.
func ringProbe(engine *parparaw.Engine, inputs [][]byte, partition int) ([]parparaw.StreamStats, []time.Duration, error) {
	var stats []parparaw.StreamStats
	var waits []time.Duration
	for i := 0; i < probeRuns; i++ {
		src := &passReader{passes: inputs, timed: true}
		res, err := engine.StreamReader(src, parparaw.StreamConfig{PartitionSize: partition, Bus: parparaw.NewBus(instantBus)})
		if err != nil {
			return nil, nil, fmt.Errorf("ring probe: %w", err)
		}
		stats = append(stats, res.Stats)
		waits = append(waits, src.wait)
	}
	return stats, waits, nil
}

// cacheMetricsAbsent sets the plan-cache and admission counters of a
// workload that calls one Engine directly: no cache, no admission.
func (r *run) cacheMetricsAbsent() {
	r.set("cache.hit_ratio", 0)
	r.set("cache.evictions", 0)
	r.set("server.admission_rejects", 0)
}

func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// interval is one timed read.
type interval struct {
	start, end time.Time
	n          int
}

// passReader yields its passes one after another through Read alone —
// no Seek, WriterTo or Len — so the pipeline pulls it as it would a
// pipe or socket. When timed, it records every Read and their total
// time.
type passReader struct {
	passes [][]byte
	off    int
	timed  bool
	wait   time.Duration
	reads  []interval
}

func (p *passReader) Read(b []byte) (int, error) {
	if len(p.passes) == 0 {
		return 0, io.EOF
	}
	var t time.Time
	if p.timed {
		t = time.Now()
	}
	n := copy(b, p.passes[0][p.off:])
	p.off += n
	if p.off == len(p.passes[0]) {
		p.passes, p.off = p.passes[1:], 0
	}
	if p.timed {
		end := time.Now()
		p.wait += end.Sub(t)
		p.reads = append(p.reads, interval{t, end, n})
	}
	return n, nil
}

// publicSchema converts a workload's schema to the public API's.
func publicSchema(s *columnar.Schema) *parparaw.Schema {
	fields := make([]parparaw.Field, len(s.Fields))
	for i, f := range s.Fields {
		var t parparaw.Type
		switch f.Type {
		case columnar.Int64:
			t = parparaw.Int64
		case columnar.Float64:
			t = parparaw.Float64
		case columnar.Bool:
			t = parparaw.Bool
		case columnar.Date32:
			t = parparaw.Date32
		case columnar.TimestampMicros:
			t = parparaw.TimestampMicros
		default:
			t = parparaw.String
		}
		fields[i] = parparaw.Field{Name: f.Name, Type: t}
	}
	return parparaw.NewSchema(fields...)
}

// convertSink keeps the per-field parsers' results live.
var convertSink int64

// convertMetrics times the convert layer's field parsers (convert.Parse*)
// on the integer, float and timestamp field bytes of a taxi sample made
// from the run's seed, after checking every parsed value against
// strconv and time.
func (r *run) convertMetrics() {
	spec := workload.Taxi()
	fields := map[columnar.Type][][]byte{}
	for _, line := range bytes.Split(spec.Generate(r.scale.convertSample, r.seed), []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		for c, f := range bytes.Split(line, []byte{','}) {
			typ := spec.Schema.Fields[c].Type
			fields[typ] = append(fields[typ], f)
		}
	}
	parsers := []struct {
		metric string
		typ    columnar.Type
		parse  func([]byte) (int64, error)
		check  func(got int64, field string) bool
	}{
		{"convert.ns_per_field.int64", columnar.Int64, convert.ParseInt64, func(got int64, f string) bool {
			v, err := strconv.ParseInt(f, 10, 64)
			return err == nil && v == got
		}},
		{"convert.ns_per_field.float64", columnar.Float64, func(b []byte) (int64, error) {
			v, err := convert.ParseFloat64(b)
			return int64(math.Float64bits(v)), err
		}, func(got int64, f string) bool {
			v, err := strconv.ParseFloat(f, 64)
			return err == nil && withinULP(math.Float64frombits(uint64(got)), v)
		}},
		{"convert.ns_per_field.timestamp", columnar.TimestampMicros, convert.ParseTimestampMicros, func(got int64, f string) bool {
			t, err := time.Parse(time.DateTime, f)
			return err == nil && t.UnixMicro() == got
		}},
	}
	for _, p := range parsers {
		fs := fields[p.typ]
		for _, f := range fs {
			if v, err := p.parse(f); err != nil || !p.check(v, string(f)) {
				r.fail(fmt.Errorf("convert layer: %q parsed as %d, %v", f, v, err))
				break
			}
		}
		var ns []float64
		for rep := 0; rep < probeRuns; rep++ {
			t := time.Now()
			for _, f := range fs {
				v, _ := p.parse(f)
				convertSink += v
			}
			ns = append(ns, float64(time.Since(t).Nanoseconds())/float64(len(fs)))
		}
		r.setDist(p.metric, ns)
	}
}
