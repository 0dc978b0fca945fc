package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	parparaw "repro"
	"repro/internal/workload"
)

// query is one /ingest configuration, rendered both as the request's
// query string and as the Options the oracle parses with.
type query struct {
	format string
	schema *parparaw.Schema
	header bool
	sel    string
	where  string
	csvOut bool
}

func (q query) values() url.Values {
	v := url.Values{"format": {q.format}}
	if q.schema != nil {
		v.Set("schema", schemaSpec(q.schema))
	}
	if q.header {
		v.Set("header", "1")
	}
	if q.sel != "" {
		v.Set("select", q.sel)
	}
	if q.where != "" {
		v.Set("where", q.where)
	}
	if q.csvOut {
		v.Set("output", "csv")
	}
	return v
}

func (q query) options() (parparaw.Options, error) {
	format, err := parparaw.FormatByName(q.format)
	if err != nil {
		return parparaw.Options{}, err
	}
	opts := parparaw.Options{Format: format, Schema: q.schema, HasHeader: q.header}
	if q.sel != "" {
		if opts.Scan.Select, err = parparaw.ParseSelectSpec(q.sel); err != nil {
			return opts, err
		}
	}
	if q.where != "" {
		if opts.Scan.Where, err = parparaw.ParseWhereSpec(q.where); err != nil {
			return opts, err
		}
	}
	return opts, nil
}

// schemaSpec renders a schema in the daemon's name:type grammar.
func schemaSpec(s *parparaw.Schema) string {
	parts := make([]string, len(s.Fields))
	for i, f := range s.Fields {
		t := map[parparaw.Type]string{parparaw.String: "string", parparaw.Int64: "int64", parparaw.Float64: "float64",
			parparaw.Bool: "bool", parparaw.Date32: "date32", parparaw.TimestampMicros: "timestamp"}[f.Type]
		parts[i] = f.Name + ":" + t
	}
	return strings.Join(parts, ",")
}

// serveClass is one request class of the serve-mix traffic.
type serveClass struct {
	share int    // percent of requests
	pool  string // the body pool requests draw from
	query query
	// adhoc classes draw a fresh float bound per request, so every
	// request has its own plan fingerprint: a plan-cache miss, a cold
	// tenant arena, and, past the cache's 64 engines, an eviction.
	adhoc bool
}

func serveClasses() []serveClass {
	taxi := publicSchema(workload.Taxi().Schema)
	yelp := publicSchema(workload.Yelp().Schema)
	return []serveClass{
		{share: 40, pool: "taxi", query: query{format: "csv", schema: taxi}},
		{share: 15, pool: "yelp", query: query{format: "csv", schema: yelp, sel: "0,3,8", where: "3:int:4:5"}},
		{share: 10, pool: "jsonl", query: query{format: "jsonl"}},
		{share: 10, pool: "weblog", query: query{format: "weblog", header: true}},
		{share: 5, pool: "tsv", query: query{format: "tsv", schema: taxi, csvOut: true}},
		{share: 20, pool: "taxi", query: query{format: "csv", schema: taxi}, adhoc: true},
	}
}

// bodyPools generates each pool's request bodies from the seed. Body
// sizes are spread evenly over [body/2, 3·body/2) whatever the seed, so
// seeds change content, not the size mix. The tsv pool is the taxi pool
// with tabs for commas (taxi fields hold neither tabs nor backslashes).
func bodyPools(seed int64, sc scale) map[string][][]byte {
	rng := rand.New(rand.NewSource(seed))
	specs := map[string]workload.Spec{"taxi": workload.Taxi(), "yelp": workload.Yelp(), "jsonl": workload.JSONLines(), "weblog": workload.Weblog()}
	pools := map[string][][]byte{}
	for _, name := range []string{"taxi", "yelp", "jsonl", "weblog"} {
		for i := 0; i < sc.pool; i++ {
			size := sc.body/2 + (2*i+1)*sc.body/(2*sc.pool)
			pools[name] = append(pools[name], specs[name].Generate(size, rng.Int63()))
		}
	}
	for _, b := range pools["taxi"] {
		pools["tsv"] = append(pools["tsv"], bytes.ReplaceAll(b, []byte{','}, []byte{'\t'}))
	}
	return pools
}

// request is one scheduled request.
type request struct {
	due    time.Duration // offset of its send slot from the start of the schedule
	q      query
	adhoc  bool
	pool   string
	body   int
	tenant string
}

// schedule draws n requests at rate per second from the seed. Every
// block of 20 consecutive requests holds each class in exact proportion
// to its share (shares are multiples of 5%), in a seeded order; bodies
// are drawn uniformly from their pool; tenants rotate.
func schedule(seed int64, n int, rate float64, classes []serveClass, poolSize int) []request {
	rng := rand.New(rand.NewSource(seed ^ 0x5e57e))
	var block []int
	for c, cl := range classes {
		for k := 0; k < cl.share/5; k++ {
			block = append(block, c)
		}
	}
	reqs := make([]request, n)
	for i := range reqs {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		c := classes[block[i%len(block)]]
		q := c.query
		if c.adhoc {
			q.where = fmt.Sprintf("10:float:0:%.9f", 5+50*rng.Float64())
		}
		reqs[i] = request{
			due:    time.Duration(float64(i) / rate * float64(time.Second)),
			q:      q,
			adhoc:  c.adhoc,
			pool:   c.pool,
			body:   rng.Intn(poolSize),
			tenant: "t" + strconv.Itoa(i%3),
		}
	}
	return reqs
}

// response is what the bench keeps of one answer for the oracle.
type response struct {
	status   int
	cache    string
	rows     int64
	columns  int
	duration time.Duration
	device   int64
	csvSum   [32]byte
	err      error
}

// client sends requests to the daemon over at most GOMAXPROCS
// keep-alive connections.
type client struct {
	base  string
	http  *http.Client
	pools map[string][][]byte
}

func newClient(base string, pools map[string][][]byte) *client {
	conns := runtime.GOMAXPROCS(0)
	return &client{base: base, pools: pools, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}}
}

// send posts one request and reads its answer to the end. s.end is the
// moment the body was fully read; decoding happens after.
func (c *client) send(req request, s *sample, t *tracer) response {
	body := c.pools[req.pool][req.body]
	s.bytes = int64(len(body))
	v := req.q.values()
	v.Set("tenant", req.tenant)
	hr, err := http.NewRequest(http.MethodPost, c.base+"/ingest?"+v.Encode(), bytes.NewReader(body))
	if err != nil {
		return response{err: err}
	}
	var gotConn, wrote atomic.Int64
	if s.traced {
		hr = hr.WithContext(httptrace.WithClientTrace(hr.Context(), &httptrace.ClientTrace{
			GotConn:      func(httptrace.GotConnInfo) { gotConn.Store(time.Now().UnixNano()) },
			WroteRequest: func(httptrace.WroteRequestInfo) { wrote.Store(time.Now().UnixNano()) },
		}))
	}
	s.sent = time.Now()
	s.late = s.sent.Sub(s.start)
	resp, err := c.http.Do(hr)
	if err != nil {
		s.end = time.Now()
		return response{err: err}
	}
	defer resp.Body.Close()
	var out response
	var data []byte
	if req.q.csvOut && resp.StatusCode == http.StatusOK {
		h := sha256.New()
		_, err = io.Copy(h, resp.Body)
		copy(out.csvSum[:], h.Sum(nil))
	} else {
		data, err = io.ReadAll(resp.Body)
	}
	s.end = time.Now()
	out.status, out.cache, out.err = resp.StatusCode, resp.Header.Get("X-Parparaw-Cache"), err
	s.cold = out.cache == "miss"
	if err == nil && resp.StatusCode == http.StatusOK {
		if req.q.csvOut {
			out.rows, out.err = strconv.ParseInt(resp.Header.Get("X-Parparaw-Rows"), 10, 64)
		} else {
			var sum parparaw.IngestSummary
			out.err = json.Unmarshal(data, &sum)
			out.rows, out.columns, out.device = sum.Rows, sum.Columns, sum.DeviceBytes
			out.duration = time.Duration(sum.DurationNs)
			s.program, s.device = out.duration, out.device
		}
	}
	if s.traced {
		rt := t.newID()
		t.add(rt, s.span, "http.roundtrip", s.sent, s.end, nil)
		g, w := time.Unix(0, gotConn.Load()), time.Unix(0, wrote.Load())
		if gotConn.Load() != 0 && wrote.Load() != 0 && !g.Before(s.sent) && !w.After(s.end) {
			s.sourceWait = w.Sub(g)
			t.add(t.newID(), rt, "http.write_body", g, w, map[string]any{"bytes": len(body)})
		}
		t.add(s.span, 0, "request", s.start, s.end, map[string]any{
			"pool": req.pool, "tenant": req.tenant, "status": out.status, "cache": out.cache,
			"duration_ns": out.duration.Nanoseconds(), "device_bytes": out.device, "rows": out.rows, "bytes": len(body)})
	}
	return out
}

// runServe drives a parparawd child with an open loop of mixed requests.
func runServe(r *run) error {
	if r.daemon == "" {
		return errors.New("serve-mix needs the parparawd binary (-parparawd)")
	}
	classes := serveClasses()
	pools := bodyPools(r.seed, r.scale)
	n := int(r.seconds.Seconds() * r.scale.rate)
	reqs := schedule(r.seed, n, r.scale.rate, classes, r.scale.pool)
	oracle := newServeOracle(pools)

	// Setup: spawn, /healthz, first request; the last start stays up for
	// the measured traffic.
	var d *daemon
	var setupResp []response
	first := request{q: classes[0].query, pool: classes[0].pool, tenant: "t0"}
	var stopErr error
	err := r.setup(func() error {
		var err error
		if d, err = startDaemon(r.daemon, r.scale.bodyPartition, r.trace); err != nil {
			return err
		}
		s := sample{start: time.Now()}
		resp := newClient(d.base, pools).send(first, &s, nil)
		setupResp = append(setupResp, resp)
		return resp.err
	}, func() {
		if d != nil {
			stopErr = errors.Join(stopErr, d.stop())
		}
	})
	if d != nil {
		defer d.stop()
	}
	if err = errors.Join(err, stopErr); err != nil {
		return err
	}
	for _, resp := range setupResp {
		r.check(oracle.verify(first, resp))
	}

	// Warm-up: every fixed configuration once per tenant, so the
	// measured traffic starts with their plans cached.
	c := newClient(d.base, pools)
	for _, cl := range classes {
		if cl.adhoc {
			continue
		}
		for t := 0; t < 3; t++ {
			req := request{q: cl.query, pool: cl.pool, tenant: "t" + strconv.Itoa(t)}
			s := sample{start: time.Now()}
			r.rep.Attempted++
			r.check(oracle.verify(req, c.send(req, &s, nil)))
		}
	}

	before, err := d.scrape()
	if err != nil {
		return err
	}
	gc0 := d.gc.count()
	samples, resps := r.openLoop(c, reqs)
	gc1 := d.gc.count()
	after, err := d.scrape()
	if err != nil {
		return err
	}
	rss, err := peakRSS(strconv.Itoa(d.cmd.Process.Pid))
	if err != nil {
		return err
	}

	var hits, misses int
	for i := range reqs {
		r.rep.Attempted++
		if err := oracle.verify(reqs[i], resps[i]); err != nil {
			samples[i].failed = true
			r.fail(fmt.Errorf("request %d (%s %s): %w", i, reqs[i].pool, reqs[i].q.values().Encode(), err))
		}
		switch resps[i].cache {
		case "hit":
			hits++
		case "miss":
			misses++
		}
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	if int(delta("parparawd_cache_hits_total")) != hits || int(delta("parparawd_cache_misses_total")) != misses {
		r.fail(fmt.Errorf("X-Parparaw-Cache counted %d hits / %d misses, /metrics %v / %v",
			hits, misses, delta("parparawd_cache_hits_total"), delta("parparawd_cache_misses_total")))
	}

	r.endToEndMetrics(samples, rss)
	if !r.trace {
		return nil
	}
	r.opLayerMetrics(samples)
	r.set("runtime.gc_cycles_per_op", float64(gc1-gc0)/float64(n))
	r.set("runtime.alloc_mb_per_op", d.gc.allocMB(gc0, gc1)/float64(n))
	r.coreMetrics(oracle.phases, oracle.walls)

	var hitLat, missLat, waits, program []float64
	for _, s := range samples {
		if s.failed {
			continue
		}
		if s.cold {
			missLat = append(missLat, ms(s.roundtrip()))
		} else {
			hitLat = append(hitLat, ms(s.roundtrip()))
		}
		if s.traced {
			waits = append(waits, ms(s.sourceWait))
		}
		if s.program > 0 {
			program = append(program, ms(s.program))
		}
	}
	r.set("cache.hit_ratio", float64(hits)/float64(hits+misses))
	r.set("cache.evictions", delta("parparawd_cache_evictions_total"))
	r.set("op.cold_penalty_ms", median(missLat)-median(hitLat))
	r.set("server.admission_rejects", delta("parparawd_admission_rejects_total"))

	// The daemon exports the ring's stage busy time only as totals, so
	// the stream layer reads as means per request.
	stage := func(name string) float64 {
		return 1e3 * delta(`parparawd_stage_busy_seconds_total{stage="`+name+`"}`) / float64(n)
	}
	r.set("stream.read_busy_ms", stage("read"))
	r.set("stream.boundary_busy_ms", stage("boundary"))
	r.set("stream.parse_busy_ms", stage("parse"))
	r.set("stream.emit_busy_ms", stage("emit"))
	r.set("stream.parse_utilization", stage("parse")/mean(program))
	r.setDist("stream.source_wait_ms", waits)
	r.set("stream.partitions", delta("parparawd_partitions_total")/float64(n))
	r.set("stream.serial_fallbacks", delta("parparawd_serial_fallbacks_total")/float64(n))
	r.convertMetrics()
	return nil
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// openLoop sends reqs on their schedule from GOMAXPROCS goroutines, each
// taking the next request when it is free. A request's latency runs
// from its slot, so a stall also delays the requests queued behind it;
// late is how far its send lagged the slot.
func (r *run) openLoop(c *client, reqs []request) ([]sample, []response) {
	samples := make([]sample, len(reqs))
	resps := make([]response, len(reqs))
	var next atomic.Int64
	t0 := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := t0.Add(reqs[i].due)
				time.Sleep(time.Until(due))
				s := &samples[i]
				s.start = due
				s.traced = r.trace && i%2 == 0
				if s.traced {
					s.span = r.tracer.newID()
				}
				resps[i] = c.send(reqs[i], s, r.tracer)
			}
		}()
	}
	wg.Wait()
	return samples, resps
}

// serveOracle holds the expected answer of every (body, configuration)
// pair: Engine.Parse of the same body with the same options — the
// daemon streams each body through the same compiled plan — and, for
// output=csv, the SHA-256 of WriteCSV over that table.
type serveOracle struct {
	pools   map[string][][]byte
	engines map[string]*parparaw.Engine
	want    map[string]expectation
	// phases and walls are the Figure 9 split of the oracle's parses on
	// warm engines: the core layer of the mix, parsed in the bench.
	phases []map[string]time.Duration
	walls  []time.Duration
}

type expectation struct {
	rows    int64
	columns int
	csvSum  [32]byte
}

func newServeOracle(pools map[string][][]byte) *serveOracle {
	return &serveOracle{pools: pools, engines: map[string]*parparaw.Engine{}, want: map[string]expectation{}}
}

func (o *serveOracle) expect(req request) (expectation, error) {
	qkey := req.q.values().Encode()
	key := req.pool + "/" + strconv.Itoa(req.body) + "?" + qkey
	if e, ok := o.want[key]; ok {
		return e, nil
	}
	engine, warm := o.engines[qkey]
	if !warm {
		opts, err := req.q.options()
		if err != nil {
			return expectation{}, err
		}
		if engine, err = parparaw.NewEngine(opts); err != nil {
			return expectation{}, err
		}
		// An ad-hoc configuration parses once: drop its arenas after,
		// rather than hold one pool per request.
		if req.adhoc {
			defer engine.Close()
		} else {
			o.engines[qkey] = engine
		}
	}
	t := time.Now()
	res, err := engine.Parse(o.pools[req.pool][req.body])
	if err != nil {
		return expectation{}, err
	}
	if warm {
		o.walls = append(o.walls, time.Since(t))
		o.phases = append(o.phases, res.Stats.Phases)
	}
	e := expectation{rows: int64(res.Table.NumRows()), columns: res.Table.NumColumns()}
	if req.q.csvOut {
		h := sha256.New()
		if err := parparaw.WriteCSV(h, res.Table); err != nil {
			return expectation{}, err
		}
		copy(e.csvSum[:], h.Sum(nil))
	}
	o.want[key] = e
	return e, nil
}

// verify checks one answer against the oracle.
func (o *serveOracle) verify(req request, got response) error {
	if got.err != nil {
		return got.err
	}
	if got.status != http.StatusOK {
		return fmt.Errorf("status %d", got.status)
	}
	want, err := o.expect(req)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	switch {
	case got.rows != want.rows:
		return fmt.Errorf("rows %d, Engine.Parse gives %d", got.rows, want.rows)
	case req.q.csvOut && got.csvSum != want.csvSum:
		return errors.New("output=csv body differs from WriteCSV of Engine.Parse")
	case !req.q.csvOut && got.columns != want.columns:
		return fmt.Errorf("columns %d, Engine.Parse gives %d", got.columns, want.columns)
	}
	return nil
}

// daemon is a running parparawd child.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	done    chan error
	stopped bool
	gc      *gcTrace
}

// startDaemon starts bin on a free loopback port with GOMAXPROCS set to
// the bench's, and waits until /healthz answers. The partition size is
// below the mean body, so most bodies cross the daemon's streaming ring
// in several partitions. With gctrace set, the Go runtime's per-cycle
// GC lines are parsed from its standard error.
func startDaemon(bin string, partition int, gctrace bool) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()

	d := &daemon{base: "http://" + addr, done: make(chan error, 1), gc: &gcTrace{}}
	d.cmd = exec.Command(bin, "-addr", addr, "-partition-size", strconv.Itoa(partition))
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.GOMAXPROCS(0)))
	if gctrace {
		d.cmd.Env = append(d.cmd.Env, "GODEBUG=gctrace=1")
	}
	d.cmd.Stderr = d.gc
	// The daemon must not outlive the bench, however the bench ends.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { d.done <- d.cmd.Wait() }()

	probe := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case err := <-d.done:
			d.done <- err
			return nil, fmt.Errorf("parparawd exited before /healthz answered: %v: %s", err, d.gc.tail())
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("parparawd /healthz did not answer within 30s: %s", d.gc.tail())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop asks the daemon to drain and exit, kills it if it has not within
// ten seconds, and waits for it either way. It may be called again.
func (d *daemon) stop() error {
	if d.stopped {
		return nil
	}
	d.stopped = true
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		return err
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
		return errors.New("parparawd did not drain within 10s; killed")
	}
}

// scrape reads /metrics into a map from series (name plus labels) to
// value.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if i < 0 || err != nil {
			return nil, fmt.Errorf("/metrics line %q", line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// gcTrace collects a Go process's standard error: the cycles of its
// GODEBUG=gctrace=1 lines, and the last other lines for diagnostics.
type gcTrace struct {
	mu      sync.Mutex
	partial []byte
	cycles  []gcCycle
	other   []string
}

// gcCycle is one GC cycle's heap at start, at end and live after, in
// MiB as gctrace prints them.
type gcCycle struct{ start, end, live float64 }

var gcLine = regexp.MustCompile(`^gc \d+ @.* (\d+)->(\d+)->(\d+) MB`)

func (g *gcTrace) Write(p []byte) (int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.partial = append(g.partial, p...)
	for {
		i := bytes.IndexByte(g.partial, '\n')
		if i < 0 {
			break
		}
		line := string(g.partial[:i])
		g.partial = g.partial[i+1:]
		if m := gcLine.FindStringSubmatch(line); m != nil {
			var c gcCycle
			c.start, _ = strconv.ParseFloat(m[1], 64)
			c.end, _ = strconv.ParseFloat(m[2], 64)
			c.live, _ = strconv.ParseFloat(m[3], 64)
			g.cycles = append(g.cycles, c)
		} else if g.other = append(g.other, line); len(g.other) > 10 {
			g.other = g.other[1:]
		}
	}
	return len(p), nil
}

func (g *gcTrace) count() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.cycles)
}

// allocMB estimates the MB allocated during cycles [from, to): each
// cycle's heap at its end less the live heap the previous cycle left.
func (g *gcTrace) allocMB(from, to int) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	var mib float64
	for i := from; i < to; i++ {
		prev := 0.0
		if i > 0 {
			prev = g.cycles[i-1].live
		}
		mib += g.cycles[i].end - prev
	}
	return mib * (1 << 20) / 1e6
}

func (g *gcTrace) tail() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return strings.Join(g.other, "\n")
}
