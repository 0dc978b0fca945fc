package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	parparaw "repro"
)

// metricDef names one reported metric and its unit. The lists below are
// the benchmark's metric vocabulary; BENCHMARK.json declares the same
// names and units (the smoke test holds the two in step).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload with -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"mb_per_s", "MB/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the per-layer metrics, reported by every workload with
// -trace 1. Layers a workload's main path does not cross are measured by
// a probe over the workload's own input (README.md, "Per-layer metrics").
var perLayer = []metricDef{
	{"core.parse_ms", "ms"},
	{"core.scan_ms", "ms"},
	{"core.tag_ms", "ms"},
	{"core.partition_ms", "ms"},
	{"core.convert_ms", "ms"},
	{"core.phase_coverage", "ratio"},
	{"convert.ns_per_field.int64", "ns"},
	{"convert.ns_per_field.float64", "ns"},
	{"convert.ns_per_field.timestamp", "ns"},
	{"device.peak_mb", "MB"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cycles_per_op", "count"},
	{"stream.read_busy_ms", "ms"},
	{"stream.boundary_busy_ms", "ms"},
	{"stream.parse_busy_ms", "ms"},
	{"stream.emit_busy_ms", "ms"},
	{"stream.parse_utilization", "ratio"},
	{"stream.source_wait_ms", "ms"},
	{"stream.partitions", "count"},
	{"stream.serial_fallbacks", "count"},
	{"op.program_ms_p50", "ms"},
	{"op.overhead_ms_p50", "ms"},
	{"op.latency_p99_ms", "ms"},
	{"op.cold_penalty_ms", "ms"},
	{"server.admission_rejects", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.evictions", "count"},
	{"loadgen.late_ms_p99", "ms"},
	{"trace.overhead_pct", "%"},
}

var units = func() map[string]string {
	m := make(map[string]string)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

// metric is one reported value, the shape of the result line's entries.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// spread describes the samples behind a median: their count and
// quartiles.
type spread struct {
	N  int     `json:"n"`
	Q1 float64 `json:"q1"`
	Q3 float64 `json:"q3"`
}

// sample is one timed operation.
type sample struct {
	bytes int64
	// start and end bound the operation's latency: from when it was due
	// (open loop) or issued (closed loop) until its output was complete.
	start, end time.Time
	// sent is when the bench issued the operation; late is how far that
	// lagged the moment the operation was due.
	sent time.Time
	late time.Duration
	// program is the run time the program reported for the operation.
	program time.Duration
	failed  bool
	traced  bool
	span    int64 // the operation's span ID when traced
	// cold marks an operation that compiled its plan (a plan-cache miss).
	cold bool

	phases     map[string]time.Duration
	stream     *parparaw.StreamStats
	device     int64
	sourceWait time.Duration
}

func (s sample) latency() time.Duration   { return s.end.Sub(s.start) }
func (s sample) roundtrip() time.Duration { return s.end.Sub(s.sent) }

// run is one workload run in progress: its settings, and the report it
// builds.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	scale    scale
	daemon   string // the parparawd binary serve-mix starts
	tracer   *tracer

	rep    *report
	setups []float64
}

// set records a metric under its declared unit. A value that is not a
// number means the run produced no samples for it, which fails the run.
func (r *run) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail(fmt.Errorf("metric %s has no value (no samples)", name))
		v = 0
	}
	r.rep.Metrics[name] = metric{Value: v, Unit: unit}
}

// setDist records the median of xs with its spread.
func (r *run) setDist(name string, xs []float64) {
	r.set(name, median(xs))
	q1, q3 := quartiles(xs)
	r.rep.Spread[name] = spread{N: len(xs), Q1: q1, Q3: q3}
}

// fail counts one failed operation.
func (r *run) fail(err error) {
	r.rep.Failed++
	if len(r.rep.Errors) < 20 {
		r.rep.Errors = append(r.rep.Errors, err.Error())
	}
}

// check counts err, when non-nil, as a failed operation.
func (r *run) check(err error) {
	if err != nil {
		r.fail(err)
	}
}

// setup times start once per configured cold start. Before each, drop
// releases what the previous start left (untimed) and a collection runs,
// so no earlier start's memory is still live. setup_s is their median.
func (r *run) setup(start func() error, drop func()) error {
	for i := 0; i < r.scale.setups; i++ {
		drop()
		runtime.GC()
		t := time.Now()
		if err := start(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		r.setups = append(r.setups, time.Since(t).Seconds())
		r.rep.Attempted++
	}
	return nil
}

// closedLoop issues op back to back until the run's time is up. Each
// operation is due the moment the previous one completed, so late
// measures the bench's own gap between operations (output checks
// included). With tracing on, every other operation is traced, so the
// untraced ones measure the tracing overhead. op sets s.end as soon as
// the call under test returns and checks the output after; a failure
// ends the loop.
func (r *run) closedLoop(name string, op func(s *sample) error) []sample {
	var out []sample
	stop := time.Now().Add(r.seconds)
	due := time.Now()
	for i := 0; time.Now().Before(stop); i++ {
		s := sample{traced: r.trace && i%2 == 0}
		if s.traced {
			s.span = r.tracer.newID()
		}
		s.sent = time.Now()
		s.start = s.sent
		s.late = s.sent.Sub(due)
		err := op(&s)
		if s.end.IsZero() {
			s.end = time.Now()
		}
		r.rep.Attempted++
		if err != nil {
			s.failed = true
			r.fail(err)
		}
		if s.traced {
			r.tracer.add(s.span, 0, name, s.start, s.end, opAttrs(s))
		}
		out = append(out, s)
		due = s.end
		if err != nil {
			break
		}
	}
	return out
}

// opAttrs are the program counters a traced operation's span carries.
func opAttrs(s sample) map[string]any {
	a := map[string]any{"bytes": s.bytes, "program_ns": s.program.Nanoseconds(), "device_bytes": s.device}
	for p, d := range s.phases {
		a["phase."+p+"_ns"] = d.Nanoseconds()
	}
	if st := s.stream; st != nil {
		a["stream.partitions"] = st.Partitions
		a["stream.in_flight"] = st.InFlight
		a["stream.read_busy_ns"] = st.ReadBusy.Nanoseconds()
		a["stream.boundary_busy_ns"] = st.BoundaryBusy.Nanoseconds()
		a["stream.parse_busy_ns"] = st.ParseBusy.Nanoseconds()
		a["stream.emit_busy_ns"] = st.EmitBusy.Nanoseconds()
	}
	return a
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// endToEndMetrics sets the user-visible metrics from the successful
// samples: the median per-operation rate, latency percentiles, setup
// time and the peak RSS of the process under test.
func (r *run) endToEndMetrics(samples []sample, peakRSS float64) {
	var rates, lat []float64
	for _, s := range samples {
		if s.failed {
			continue
		}
		rates = append(rates, float64(s.bytes)/s.latency().Seconds()/1e6)
		lat = append(lat, ms(s.latency()))
	}
	if len(lat) == 0 {
		r.fail(fmt.Errorf("no operation completed"))
		return
	}
	r.setDist("mb_per_s", rates)
	r.set("latency_p50_ms", percentile(lat, 0.50))
	r.set("latency_p90_ms", percentile(lat, 0.90))
	r.rep.Spread["latency_p50_ms"] = spread{N: len(lat)}
	r.rep.Spread["latency_p90_ms"] = spread{N: len(lat)}
	r.setDist("setup_s", r.setups)
	r.set("peak_rss_mb", peakRSS)
}

// opLayerMetrics sets the per-layer metrics every workload derives from
// its own samples: the program's reported run time against the
// operation's wall time, the latency tail, the generator's lateness,
// device memory, and the tracing overhead.
func (r *run) opLayerMetrics(samples []sample) {
	var program, overhead, lat, late, traced, untraced []float64
	var device int64
	for _, s := range samples {
		if s.failed {
			continue
		}
		lat = append(lat, ms(s.latency()))
		late = append(late, ms(s.late))
		if s.program > 0 {
			program = append(program, ms(s.program))
			overhead = append(overhead, ms(s.roundtrip()-s.program))
		}
		if s.traced {
			traced = append(traced, ms(s.latency()))
		} else {
			untraced = append(untraced, ms(s.latency()))
		}
		device = max(device, s.device)
	}
	r.setDist("op.program_ms_p50", program)
	r.setDist("op.overhead_ms_p50", overhead)
	r.set("op.latency_p99_ms", percentile(lat, 0.99))
	r.set("loadgen.late_ms_p99", percentile(late, 0.99))
	r.set("device.peak_mb", float64(device)/1e6)
	r.set("trace.overhead_pct", 100*(median(traced)/median(untraced)-1))
}

// coreMetrics sets the Figure 9 kernel-phase split from Stats.Phases of
// the given parses and their wall times.
func (r *run) coreMetrics(phases []map[string]time.Duration, walls []time.Duration) {
	for _, p := range parparaw.PhaseNames {
		var xs []float64
		for _, ph := range phases {
			xs = append(xs, ms(ph[p]))
		}
		r.setDist("core."+p+"_ms", xs)
	}
	var coverage []float64
	for i, ph := range phases {
		var sum time.Duration
		for _, d := range ph {
			sum += d
		}
		coverage = append(coverage, float64(sum)/float64(walls[i]))
	}
	r.setDist("core.phase_coverage", coverage)
}

// ringMetrics sets the streaming ring's per-stage busy times and
// counters from the StreamStats of the given runs, and the time the ring
// spent inside the bench's reader.
func (r *run) ringMetrics(stats []parparaw.StreamStats, sourceWait []time.Duration) {
	var read, boundary, parse, emit, util, parts, fallbacks []float64
	for _, st := range stats {
		read = append(read, ms(st.ReadBusy))
		boundary = append(boundary, ms(st.BoundaryBusy))
		parse = append(parse, ms(st.ParseBusy))
		emit = append(emit, ms(st.EmitBusy))
		util = append(util, float64(st.ParseBusy)/(float64(st.InFlight)*float64(st.Duration)))
		parts = append(parts, float64(st.Partitions))
		fallbacks = append(fallbacks, float64(st.SerialFallbacks))
	}
	r.setDist("stream.read_busy_ms", read)
	r.setDist("stream.boundary_busy_ms", boundary)
	r.setDist("stream.parse_busy_ms", parse)
	r.setDist("stream.emit_busy_ms", emit)
	r.setDist("stream.parse_utilization", util)
	r.setDist("stream.source_wait_ms", durations(sourceWait))
	r.set("stream.partitions", median(parts))
	r.set("stream.serial_fallbacks", median(fallbacks))
}

// runtimeMetrics sets allocation and GC cycles per operation from two
// MemStats snapshots around ops operations.
func (r *run) runtimeMetrics(before, after *runtime.MemStats, ops int) {
	r.set("runtime.alloc_mb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/1e6/float64(ops))
	r.set("runtime.gc_cycles_per_op", float64(after.NumGC-before.NumGC)/float64(ops))
}

// percentile is the p-quantile of xs by linear interpolation between
// order statistics; NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles are the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (exclusive), so spreads read the
// same here as in external checks.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		v := median(xs)
		return v, v
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) + 1
	q := func(i int) float64 {
		j := i * m / 4
		delta := i*m - j*4
		switch {
		case j < 1:
			return s[0]
		case j >= len(s):
			return s[len(s)-1]
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// peakRSS returns VmHWM, the resident-set high-water mark, of process
// pid ("self" for this one) in MB.
func peakRSS(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// span is one traced interval: an operation, or a step inside one.
type span struct {
	ID     int64          `json:"id"`
	Parent int64          `json:"parent,omitempty"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// tracer keeps the spans of a traced run in memory until the run ends.
// Times are nanoseconds since the tracer was made.
type tracer struct {
	t0   time.Time
	next atomic.Int64
	mu   sync.Mutex
	list []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newID() int64 { return t.next.Add(1) }

func (t *tracer) add(id, parent int64, name string, start, end time.Time, attrs map[string]any) {
	sp := span{ID: id, Parent: parent, Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Attrs: attrs}
	t.mu.Lock()
	t.list = append(t.list, sp)
	t.mu.Unlock()
}

// check verifies that every span with a parent lies inside it.
func (t *tracer) check() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	byID := make(map[int64]span, len(t.list))
	for _, s := range t.list {
		byID[s.ID] = s
	}
	for _, s := range t.list {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %d (%s) has no parent %d", s.ID, s.Name, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%d,%d] is outside its parent %d (%s) [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// write stores the spans as a JSON array, in order of start.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	list := append([]span(nil), t.list...)
	t.mu.Unlock()
	sort.Slice(list, func(i, j int) bool { return list[i].Start < list[j].Start })
	data, err := json.Marshal(list)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
