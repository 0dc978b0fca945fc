package parparaw

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Server is the ingestion service behind cmd/parparawd, exported so the
// daemon's engine room — plan cache, per-tenant arena pools, device-
// bytes admission, metrics — is equally available to programs that want
// to mount it on their own http.Server or test it with httptest.
//
// One Server serves any number of tenants and configurations. Requests
// select a dialect, schema, and pushdown through query parameters
// (see Handler); the resulting Options are fingerprinted into the
// EngineCache, so a repeated configuration pays plan compilation once.
// Each tenant parses on its own Engine sharing the cached engine's
// compiled plan but owning a private arena pool: tenants recycle their
// own device memory and cannot observe another tenant's footprint or
// statistics. A global admission budget bounds the estimated device
// bytes of requests in flight; requests beyond it are answered 429
// with a Retry-After hint instead of being queued into memory
// exhaustion.
type Server struct {
	cfg   ServerConfig
	cache *EngineCache
	mux   *http.ServeMux
	start time.Time

	admitMu  sync.Mutex
	admitted int64 // estimated device bytes of admitted requests

	tenantMu sync.Mutex
	tenants  map[string]*tenantState

	m serverMetrics
}

// ServerConfig configures a Server. The zero value serves with a
// DefaultCacheEngines-entry plan cache, DefaultPartitionSize streaming
// partitions, no admission budget, and no body-read retries.
type ServerConfig struct {
	// CacheEngines bounds the plan cache (0 = DefaultCacheEngines).
	CacheEngines int
	// DeviceBudget, when positive, bounds the estimated device bytes of
	// requests concurrently in flight: a request whose estimate does not
	// fit is answered 429 with a Retry-After hint. A request is always
	// admitted when nothing is in flight, so a budget smaller than one
	// request's estimate degrades to serial service instead of a
	// permanent 429.
	DeviceBudget int64
	// PartitionSize is the streaming partition size of request bodies
	// (0 = DefaultPartitionSize). Requests may lower it per call with
	// the partition query parameter, never raise it above this.
	PartitionSize int
	// RetryAfter is the hint returned with 429 responses (0 = 1s).
	RetryAfter time.Duration
	// Retry is the transient-failure policy applied to request body
	// reads (see RetryPolicy). The zero value disables retrying.
	Retry RetryPolicy
	// WrapBody, when non-nil, wraps every request body before parsing —
	// an instrumentation seam (rate measurement, chaos injection). The
	// wrapper runs inside the request's lifetime; it must not retain
	// the reader.
	WrapBody func(io.Reader) io.Reader
}

// admissionFootprintFactor scales a request's partition size × ring
// depth into its admission estimate: the kernel pipeline's working set
// (state vectors, bitmaps, offset scans, scatter buffers, column
// staging) is a small multiple of the raw partition bytes, and
// admission must err on the side of overestimating — a 429 is cheap,
// an OOM kill is not.
const admissionFootprintFactor = 8

// tenantState is one tenant's private serving state: engines sharing
// the cache's compiled plans but recycling their own arenas, plus the
// tenant's statistics — nothing in here is ever read or written by
// another tenant's requests.
type tenantState struct {
	mu      sync.Mutex
	engines map[string]*Engine // fingerprint -> tenant-private engine

	requests   atomic.Int64
	errors     atomic.Int64
	inputBytes atomic.Int64
	rows       atomic.Int64
}

// serverMetrics is the global counter set exported at /metrics.
type serverMetrics struct {
	requests         atomic.Int64
	inflight         atomic.Int64
	admissionRejects atomic.Int64

	status2xx, status400, status429, status499, status5xx atomic.Int64

	inputBytes            atomic.Int64
	outputBytes           atomic.Int64
	rows                  atomic.Int64
	rowsPruned            atomic.Int64
	bytesSkipped          atomic.Int64
	partitions            atomic.Int64
	retries               atomic.Int64
	retriedBytes          atomic.Int64
	quarantinedPartitions atomic.Int64
	quarantinedRecords    atomic.Int64
	serialFallbacks       atomic.Int64
	invalidInputs         atomic.Int64

	readBusyNs     atomic.Int64
	boundaryBusyNs atomic.Int64
	parseBusyNs    atomic.Int64
	emitBusyNs     atomic.Int64
}

// NewServer returns a Server ready to mount via Handler.
func NewServer(cfg ServerConfig) *Server {
	if cfg.PartitionSize <= 0 {
		cfg.PartitionSize = DefaultPartitionSize
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	s := &Server{
		cfg:     cfg,
		cache:   NewEngineCache(cfg.CacheEngines),
		tenants: make(map[string]*tenantState),
		start:   time.Now(),
	}
	// An evicted configuration must stop holding memory everywhere:
	// the cache Closes the shared engine, and this hook drops and
	// Closes every tenant's private engine compiled from the same
	// fingerprint.
	s.cache.OnEvict(func(key string, _ *Engine) {
		s.tenantMu.Lock()
		states := make([]*tenantState, 0, len(s.tenants))
		for _, ts := range s.tenants {
			states = append(states, ts)
		}
		s.tenantMu.Unlock()
		for _, ts := range states {
			ts.mu.Lock()
			if e, ok := ts.engines[key]; ok {
				delete(ts.engines, key)
				e.Close()
			}
			ts.mu.Unlock()
		}
	})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /dialects", s.handleDialects)
	s.mux = mux
	return s
}

// Cache returns the server's plan cache (shared with library callers
// that want to inspect or pre-warm it).
func (s *Server) Cache() *EngineCache { return s.cache }

// Handler returns the server's HTTP interface:
//
//	POST /ingest    parse the request body; query parameters select the plan
//	GET  /metrics   Prometheus-style counters
//	GET  /healthz   liveness
//	GET  /dialects  JSON list of registered dialect presets
//
// /ingest query parameters:
//
//	format=csv|tsv|psv|jsonl|weblog   dialect preset (default csv)
//	header=1                          first record carries column names
//	schema=name:type,...              fixed schema (types: string, int64,
//	                                  float64, bool, date32, timestamp);
//	                                  omitted = inferred
//	select=0,3,5                      projection pushdown (ParseSelectSpec)
//	where=1=JFK;4:int:0:100           predicate pushdown (ParseWhereSpec)
//	mode=tagged|inline|delimited      tagging mode (default tagged)
//	validate=1                        fail the parse on format violations
//	quarantine=1                      skip bad partitions instead of failing
//	partition=1MB                     partition size (capped at the server's)
//	output=summary|csv                response shape (default summary)
//	tenant=name                       tenant key (or X-Parparaw-Tenant)
//
// Responses: output=summary answers an IngestSummary JSON document;
// output=csv streams the parsed table back as RFC 4180 CSV (WriteCSV),
// byte-identical to WriteCSV over Engine.ParseReader with the same
// options. Both carry X-Parparaw-Cache: hit|miss. Failures answer the
// HTTPStatus of the typed error with an IngestError JSON body that
// includes the partial progress drained before the failure.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP makes Server itself mountable.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// IngestSummary is the JSON document a summary-mode ingest answers
// with: output shape, run statistics, and the plan-cache outcome.
type IngestSummary struct {
	Rows    int64    `json:"rows"`
	Columns int      `json:"columns"`
	Schema  []string `json:"schema"`
	Header  []string `json:"header,omitempty"`

	Partitions            int   `json:"partitions"`
	InputBytes            int64 `json:"input_bytes"`
	RowsPruned            int64 `json:"rows_pruned,omitempty"`
	BytesSkipped          int64 `json:"bytes_skipped,omitempty"`
	InvalidInput          bool  `json:"invalid_input,omitempty"`
	Retries               int64 `json:"retries,omitempty"`
	QuarantinedPartitions int   `json:"quarantined_partitions,omitempty"`
	QuarantinedRecords    int64 `json:"quarantined_records,omitempty"`
	SerialFallbacks       int   `json:"serial_fallbacks,omitempty"`
	DurationNs            int64 `json:"duration_ns"`
	DeviceBytes           int64 `json:"device_bytes"`

	CacheHit bool   `json:"cache_hit"`
	Tenant   string `json:"tenant"`
}

// IngestError is the JSON document a failed ingest answers with: the
// error, its taxonomy kind (ErrorKind), and the partial progress the
// run drained before failing — the typed partial-result contract of
// StreamReaderContext carried through to the wire.
type IngestError struct {
	Error   string         `json:"error"`
	Kind    string         `json:"kind"`
	Partial *IngestSummary `json:"partial,omitempty"`
}

// ingestRequest is the per-request configuration parsed from query
// parameters, beyond what lands in Options.
type ingestRequest struct {
	opts          Options
	partitionSize int
	outputCSV     bool
	quarantine    bool
	tenant        string
}

// ingestParams is the complete query-parameter set /ingest accepts;
// unknown parameters are a 400, so typos fail loudly instead of
// silently parsing with defaults.
var ingestParams = map[string]bool{
	"format": true, "header": true, "schema": true, "select": true,
	"where": true, "mode": true, "validate": true,
	"quarantine": true, "partition": true, "output": true, "tenant": true,
}

func (s *Server) parseIngestRequest(r *http.Request) (ingestRequest, error) {
	q := r.URL.Query()
	for k := range q {
		if !ingestParams[k] {
			return ingestRequest{}, fmt.Errorf("unknown query parameter %q", k)
		}
	}
	req := ingestRequest{partitionSize: s.cfg.PartitionSize}

	formatName := q.Get("format")
	if formatName == "" {
		formatName = "csv"
	}
	format, err := FormatByName(formatName)
	if err != nil {
		return ingestRequest{}, err
	}
	req.opts.Format = format

	boolParam := func(key string) (bool, error) {
		v := q.Get(key)
		switch v {
		case "", "0", "false":
			return false, nil
		case "1", "true":
			return true, nil
		}
		return false, fmt.Errorf("invalid %s=%q (want 0/1/true/false)", key, v)
	}
	if req.opts.HasHeader, err = boolParam("header"); err != nil {
		return ingestRequest{}, err
	}
	if req.opts.Validate, err = boolParam("validate"); err != nil {
		return ingestRequest{}, err
	}
	if req.quarantine, err = boolParam("quarantine"); err != nil {
		return ingestRequest{}, err
	}

	switch mode := q.Get("mode"); mode {
	case "", "tagged":
		req.opts.Mode = RecordTagged
	case "inline":
		req.opts.Mode = InlineTerminated
	case "delimited":
		req.opts.Mode = VectorDelimited
	default:
		return ingestRequest{}, fmt.Errorf("unknown mode %q", mode)
	}

	if spec := q.Get("schema"); spec != "" {
		schema, err := parseSchemaSpec(spec)
		if err != nil {
			return ingestRequest{}, err
		}
		req.opts.Schema = schema
	}
	if spec := q.Get("select"); spec != "" {
		sel, err := ParseSelectSpec(spec)
		if err != nil {
			return ingestRequest{}, err
		}
		req.opts.Scan.Select = sel
	}
	if spec := q.Get("where"); spec != "" {
		where, err := ParseWhereSpec(spec)
		if err != nil {
			return ingestRequest{}, err
		}
		req.opts.Scan.Where = where
	}

	if spec := q.Get("partition"); spec != "" {
		size, err := ParseSizeSpec(spec)
		if err != nil {
			return ingestRequest{}, err
		}
		// Larger-than-configured partitions would grow the daemon's
		// memory ceiling at the client's request; cap, don't trust.
		if size < req.partitionSize {
			req.partitionSize = size
		}
	}

	switch out := q.Get("output"); out {
	case "", "summary":
	case "csv":
		req.outputCSV = true
	default:
		return ingestRequest{}, fmt.Errorf("unknown output %q (want summary or csv)", out)
	}

	req.tenant = q.Get("tenant")
	if req.tenant == "" {
		req.tenant = r.Header.Get("X-Parparaw-Tenant")
	}
	if req.tenant == "" {
		req.tenant = "default"
	}
	return req, nil
}

// tenantFor returns (creating if needed) the tenant's serving state.
func (s *Server) tenantFor(name string) *tenantState {
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	ts, ok := s.tenants[name]
	if !ok {
		ts = &tenantState{engines: make(map[string]*Engine)}
		s.tenants[name] = ts
	}
	return ts
}

// tenantEngine returns the tenant's private engine for the fingerprint,
// sharing the cache-compiled plan but recycling its own arenas.
func (ts *tenantState) engineFor(key string, shared *Engine) *Engine {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if e, ok := ts.engines[key]; ok {
		return e
	}
	e := newEngineSharedPlan(shared)
	ts.engines[key] = e
	return e
}

// admit charges a request's estimated device bytes against the global
// budget. A request is always admitted when nothing else is in flight
// — the same progress guarantee as the streaming ring's own budget.
func (s *Server) admit(est int64) bool {
	if s.cfg.DeviceBudget <= 0 {
		s.admitMu.Lock()
		s.admitted += est
		s.admitMu.Unlock()
		return true
	}
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	if s.admitted > 0 && s.admitted+est > s.cfg.DeviceBudget {
		return false
	}
	s.admitted += est
	return true
}

func (s *Server) releaseAdmission(est int64) {
	s.admitMu.Lock()
	s.admitted -= est
	s.admitMu.Unlock()
}

// admissionEstimate is the device-bytes estimate a request charges: its
// effective partition size times the plan's ring depth, scaled by the
// pipeline's working-set factor.
func (s *Server) admissionEstimate(e *Engine, partitionSize int) int64 {
	inFlight := e.plan.Options().InFlight
	if inFlight < 1 {
		inFlight = 1
	}
	return int64(partitionSize) * int64(inFlight) * admissionFootprintFactor
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Add(1)
	s.m.inflight.Add(1)
	defer s.m.inflight.Add(-1)

	req, err := s.parseIngestRequest(r)
	if err != nil {
		s.writeError(w, nil, http.StatusBadRequest, "request", err, nil)
		return
	}
	ts := s.tenantFor(req.tenant)
	ts.requests.Add(1)

	shared, key, hit, err := s.cache.GetKeyed(req.opts)
	if err != nil {
		// NewEngine rejected the configuration (conflicting selections,
		// out-of-schema predicate, …): the client's parameters are at
		// fault, not the server.
		s.writeError(w, ts, http.StatusBadRequest, "request", err, nil)
		return
	}
	engine := ts.engineFor(key, shared)

	est := s.admissionEstimate(engine, req.partitionSize)
	if !s.admit(est) {
		s.m.admissionRejects.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		s.writeError(w, ts, http.StatusTooManyRequests, "budget",
			fmt.Errorf("parparaw: admission: estimated %d device bytes over budget %d", est, s.cfg.DeviceBudget), nil)
		return
	}
	defer s.releaseAdmission(est)

	var body io.Reader = r.Body
	if s.cfg.WrapBody != nil {
		body = s.cfg.WrapBody(body)
	}
	res, err := engine.StreamReaderContext(r.Context(), body, StreamConfig{
		PartitionSize: req.partitionSize,
		// The daemon streams for bounded memory, not interconnect
		// modelling: an instantaneous bus keeps simulated transfer
		// delays out of real clients' latencies.
		Bus:               NewBus(instantBus),
		Retry:             s.cfg.Retry,
		SkipBadPartitions: req.quarantine,
	})
	if res != nil {
		s.accountStats(ts, res)
	}
	if err != nil {
		var partial *IngestSummary
		if res != nil {
			partial = summaryFrom(res, req.tenant, hit)
		}
		s.writeError(w, ts, HTTPStatus(err), ErrorKind(err), err, partial)
		return
	}

	cache := "miss"
	if hit {
		cache = "hit"
	}
	w.Header().Set("X-Parparaw-Cache", cache)

	if req.outputCSV {
		combined, cerr := res.Combined()
		if cerr != nil {
			s.writeError(w, ts, http.StatusInternalServerError, "internal", cerr, nil)
			return
		}
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		w.Header().Set("X-Parparaw-Rows", strconv.Itoa(combined.NumRows()))
		s.m.status2xx.Add(1)
		cw := &countingWriter{w: w}
		if werr := WriteCSV(cw, combined); werr == nil {
			s.m.outputBytes.Add(cw.n)
		}
		return
	}

	s.m.status2xx.Add(1)
	s.writeJSON(w, http.StatusOK, summaryFrom(res, req.tenant, hit))
}

// accountStats folds one run's statistics (complete or partial) into
// the global and tenant counters.
func (s *Server) accountStats(ts *tenantState, res *StreamResult) {
	st := res.Stats
	rows := int64(res.NumRows())
	s.m.inputBytes.Add(st.InputBytes)
	s.m.rows.Add(rows)
	s.m.rowsPruned.Add(st.RowsPruned)
	s.m.bytesSkipped.Add(st.BytesSkipped)
	s.m.partitions.Add(int64(st.Partitions))
	s.m.retries.Add(st.Retries)
	s.m.retriedBytes.Add(st.RetriedBytes)
	s.m.quarantinedPartitions.Add(int64(st.QuarantinedPartitions))
	s.m.quarantinedRecords.Add(st.QuarantinedRecords)
	s.m.serialFallbacks.Add(int64(st.SerialFallbacks))
	if st.InvalidInput {
		s.m.invalidInputs.Add(1)
	}
	s.m.readBusyNs.Add(int64(st.ReadBusy))
	s.m.boundaryBusyNs.Add(int64(st.BoundaryBusy))
	s.m.parseBusyNs.Add(int64(st.ParseBusy))
	s.m.emitBusyNs.Add(int64(st.EmitBusy))

	ts.inputBytes.Add(st.InputBytes)
	ts.rows.Add(rows)
}

func summaryFrom(res *StreamResult, tenant string, hit bool) *IngestSummary {
	sum := &IngestSummary{
		Rows:                  int64(res.NumRows()),
		Header:                res.Header,
		Partitions:            res.Stats.Partitions,
		InputBytes:            res.Stats.InputBytes,
		RowsPruned:            res.Stats.RowsPruned,
		BytesSkipped:          res.Stats.BytesSkipped,
		InvalidInput:          res.Stats.InvalidInput,
		Retries:               res.Stats.Retries,
		QuarantinedPartitions: res.Stats.QuarantinedPartitions,
		QuarantinedRecords:    res.Stats.QuarantinedRecords,
		SerialFallbacks:       res.Stats.SerialFallbacks,
		DurationNs:            int64(res.Stats.Duration),
		DeviceBytes:           res.Stats.DeviceBytes,
		CacheHit:              hit,
		Tenant:                tenant,
	}
	if len(res.Tables) > 0 {
		schema := res.Tables[0].Schema()
		sum.Columns = schema.NumColumns()
		sum.Schema = make([]string, len(schema.Fields))
		for i, f := range schema.Fields {
			sum.Schema[i] = f.Name + ":" + f.Type.String()
		}
	}
	return sum
}

func (s *Server) writeError(w http.ResponseWriter, ts *tenantState, status int, kind string, err error, partial *IngestSummary) {
	switch {
	case status == http.StatusBadRequest:
		s.m.status400.Add(1)
	case status == http.StatusTooManyRequests:
		s.m.status429.Add(1)
	case status == StatusClientClosedRequest:
		s.m.status499.Add(1)
	case status >= 500:
		s.m.status5xx.Add(1)
	}
	if ts != nil {
		ts.errors.Add(1)
	}
	s.writeJSON(w, status, IngestError{Error: err.Error(), Kind: kind, Partial: partial})
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

func (s *Server) handleDialects(w http.ResponseWriter, r *http.Request) {
	type dialectDoc struct {
		Name        string `json:"name"`
		Description string `json:"description"`
		States      int    `json:"dfa_states"`
	}
	var out []dialectDoc
	for _, d := range Dialects() {
		out = append(out, dialectDoc{Name: d.Name, Description: d.Description, States: d.New().NumStates()})
	}
	s.writeJSON(w, http.StatusOK, out)
}

// handleMetrics renders the Prometheus text exposition format by hand —
// a few counters do not justify a client library dependency.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	counter("parparawd_requests_total", "Ingest requests received.", s.m.requests.Load())
	gauge("parparawd_inflight_requests", "Ingest requests currently being served.", s.m.inflight.Load())
	fmt.Fprintf(&b, "# HELP parparawd_responses_total Responses by status class.\n# TYPE parparawd_responses_total counter\n")
	fmt.Fprintf(&b, "parparawd_responses_total{code=\"2xx\"} %d\n", s.m.status2xx.Load())
	fmt.Fprintf(&b, "parparawd_responses_total{code=\"400\"} %d\n", s.m.status400.Load())
	fmt.Fprintf(&b, "parparawd_responses_total{code=\"429\"} %d\n", s.m.status429.Load())
	fmt.Fprintf(&b, "parparawd_responses_total{code=\"499\"} %d\n", s.m.status499.Load())
	fmt.Fprintf(&b, "parparawd_responses_total{code=\"5xx\"} %d\n", s.m.status5xx.Load())

	counter("parparawd_input_bytes_total", "Raw input bytes parsed.", s.m.inputBytes.Load())
	counter("parparawd_output_bytes_total", "Response body bytes written (csv output).", s.m.outputBytes.Load())
	counter("parparawd_rows_total", "Rows materialised.", s.m.rows.Load())
	counter("parparawd_rows_pruned_total", "Rows pruned by predicate pushdown.", s.m.rowsPruned.Load())
	counter("parparawd_bytes_skipped_total", "Symbol bytes the partition scatter never moved.", s.m.bytesSkipped.Load())
	counter("parparawd_partitions_total", "Streaming partitions parsed.", s.m.partitions.Load())
	counter("parparawd_retries_total", "Input reads retried.", s.m.retries.Load())
	counter("parparawd_retried_bytes_total", "Bytes recovered by retried reads.", s.m.retriedBytes.Load())
	counter("parparawd_quarantined_partitions_total", "Partitions quarantined.", s.m.quarantinedPartitions.Load())
	counter("parparawd_quarantined_records_total", "Malformed records diverted.", s.m.quarantinedRecords.Load())
	counter("parparawd_serial_fallbacks_total", "Partitions parsed on the serial carry path.", s.m.serialFallbacks.Load())
	counter("parparawd_invalid_inputs_total", "Runs whose DFA flagged invalid input.", s.m.invalidInputs.Load())
	counter("parparawd_admission_rejects_total", "Requests rejected by the device-bytes budget.", s.m.admissionRejects.Load())

	s.admitMu.Lock()
	admitted := s.admitted
	s.admitMu.Unlock()
	gauge("parparawd_admitted_device_bytes", "Estimated device bytes of admitted requests.", admitted)
	gauge("parparawd_device_budget_bytes", "Configured admission budget (0 = unlimited).", s.cfg.DeviceBudget)

	cs := s.cache.Stats()
	counter("parparawd_cache_hits_total", "Plan-cache hits.", cs.Hits)
	counter("parparawd_cache_misses_total", "Plan-cache misses (plans compiled).", cs.Misses)
	counter("parparawd_cache_evictions_total", "Plan-cache evictions.", cs.Evictions)
	gauge("parparawd_cache_engines", "Compiled engines currently cached.", int64(cs.Engines))
	gauge("parparawd_cache_reserved_bytes", "Device bytes held idle by cached engines.", s.cache.ReservedBytes())

	fmt.Fprintf(&b, "# HELP parparawd_stage_busy_seconds_total Cumulative streaming stage busy time.\n# TYPE parparawd_stage_busy_seconds_total counter\n")
	stage := func(name string, ns int64) {
		fmt.Fprintf(&b, "parparawd_stage_busy_seconds_total{stage=%q} %.6f\n", name, float64(ns)/1e9)
	}
	stage("read", s.m.readBusyNs.Load())
	stage("boundary", s.m.boundaryBusyNs.Load())
	stage("parse", s.m.parseBusyNs.Load())
	stage("emit", s.m.emitBusyNs.Load())

	s.tenantMu.Lock()
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	states := make([]*tenantState, len(names))
	for i, name := range names {
		states[i] = s.tenants[name]
	}
	s.tenantMu.Unlock()
	if len(names) > 0 {
		fmt.Fprintf(&b, "# HELP parparawd_tenant_requests_total Requests per tenant.\n# TYPE parparawd_tenant_requests_total counter\n")
		for i, name := range names {
			fmt.Fprintf(&b, "parparawd_tenant_requests_total{tenant=%q} %d\n", name, states[i].requests.Load())
		}
		fmt.Fprintf(&b, "# HELP parparawd_tenant_errors_total Failed requests per tenant.\n# TYPE parparawd_tenant_errors_total counter\n")
		for i, name := range names {
			fmt.Fprintf(&b, "parparawd_tenant_errors_total{tenant=%q} %d\n", name, states[i].errors.Load())
		}
		fmt.Fprintf(&b, "# HELP parparawd_tenant_input_bytes_total Input bytes per tenant.\n# TYPE parparawd_tenant_input_bytes_total counter\n")
		for i, name := range names {
			fmt.Fprintf(&b, "parparawd_tenant_input_bytes_total{tenant=%q} %d\n", name, states[i].inputBytes.Load())
		}
		fmt.Fprintf(&b, "# HELP parparawd_tenant_rows_total Rows materialised per tenant.\n# TYPE parparawd_tenant_rows_total counter\n")
		for i, name := range names {
			fmt.Fprintf(&b, "parparawd_tenant_rows_total{tenant=%q} %d\n", name, states[i].rows.Load())
		}
	}

	gauge("parparawd_goroutines", "Live goroutines.", int64(runtime.NumGoroutine()))
	gauge("parparawd_uptime_seconds", "Seconds since the server started.", int64(time.Since(s.start).Seconds()))

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, b.String())
}

// tenantSnapshot returns a tenant's counters (0s for an unknown
// tenant) — the programmatic face of the per-tenant metrics.
func (s *Server) tenantSnapshot(name string) (requests, errors, inputBytes, rows int64) {
	s.tenantMu.Lock()
	ts := s.tenants[name]
	s.tenantMu.Unlock()
	if ts == nil {
		return 0, 0, 0, 0
	}
	return ts.requests.Load(), ts.errors.Load(), ts.inputBytes.Load(), ts.rows.Load()
}

// tenantEngines lists a tenant's private engines, for the arena-balance
// assertions of the soak suite.
func (s *Server) tenantEngines(name string) []*Engine {
	s.tenantMu.Lock()
	ts := s.tenants[name]
	s.tenantMu.Unlock()
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]*Engine, 0, len(ts.engines))
	for _, e := range ts.engines {
		out = append(out, e)
	}
	return out
}

// ParseSelectSpec parses a projection spec — comma-separated column
// indices, e.g. "0,3,5" — into ScanOptions.Select form. It is the
// grammar of the CLI's -select flag and the daemon's select query
// parameter.
func ParseSelectSpec(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("parparaw: invalid select column %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// ParseWhereSpec parses a predicate spec into ScanOptions.Where form:
// semicolon-separated predicates over pre-selection column indices —
// the grammar of the CLI's -where flag and the daemon's where query
// parameter.
//
//	col=value        field equals value
//	col!=value       field differs from value
//	col^=prefix      field starts with prefix
//	col:null         field is empty
//	col:notnull      field is non-empty
//	col:int:lo:hi    field parses as an integer in [lo, hi]
//	col:float:lo:hi  field parses as a float in [lo, hi]
func ParseWhereSpec(s string) ([]Predicate, error) {
	var out []Predicate
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		p, err := parsePredicateSpec(part)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("parparaw: empty where spec")
	}
	return out, nil
}

func parsePredicateSpec(s string) (Predicate, error) {
	bad := func() (Predicate, error) {
		return Predicate{}, fmt.Errorf("parparaw: invalid where predicate %q", s)
	}
	// Find where the column index ends: the first non-digit byte.
	i := 0
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	if i == 0 || i == len(s) {
		return bad()
	}
	col, err := strconv.Atoi(s[:i])
	if err != nil {
		return bad()
	}
	rest := s[i:]
	switch {
	case strings.HasPrefix(rest, "!="):
		return Ne(col, rest[2:]), nil
	case strings.HasPrefix(rest, "^="):
		return Prefix(col, rest[2:]), nil
	case strings.HasPrefix(rest, "="):
		return Eq(col, rest[1:]), nil
	case rest == ":null":
		return IsNull(col), nil
	case rest == ":notnull":
		return NotNull(col), nil
	case strings.HasPrefix(rest, ":int:"):
		lo, hi, ok := splitRangeSpec(rest[len(":int:"):])
		if !ok {
			return bad()
		}
		l, err1 := strconv.ParseInt(lo, 10, 64)
		h, err2 := strconv.ParseInt(hi, 10, 64)
		if err1 != nil || err2 != nil {
			return bad()
		}
		return IntRange(col, l, h), nil
	case strings.HasPrefix(rest, ":float:"):
		lo, hi, ok := splitRangeSpec(rest[len(":float:"):])
		if !ok {
			return bad()
		}
		l, err1 := strconv.ParseFloat(lo, 64)
		h, err2 := strconv.ParseFloat(hi, 64)
		if err1 != nil || err2 != nil {
			return bad()
		}
		return FloatRange(col, l, h), nil
	}
	return bad()
}

// splitRangeSpec splits "lo:hi" at the last ':' so negative bounds keep
// their leading '-'.
func splitRangeSpec(s string) (lo, hi string, ok bool) {
	j := strings.LastIndexByte(s, ':')
	if j <= 0 || j == len(s)-1 {
		return "", "", false
	}
	return s[:j], s[j+1:], true
}

// ParseSizeSpec parses a byte-size spec with optional B/KB/MB/GB
// suffix ("32MB", "65536") — the grammar of the CLI's -partition-size
// flag and the daemon's partition query parameter. Sizes that are not
// positive or do not fit an int are rejected.
func ParseSizeSpec(s string) (int, error) {
	u := strings.ToUpper(strings.TrimSpace(s))
	mult := 1
	switch {
	case strings.HasSuffix(u, "GB"):
		mult, u = 1<<30, strings.TrimSuffix(u, "GB")
	case strings.HasSuffix(u, "MB"):
		mult, u = 1<<20, strings.TrimSuffix(u, "MB")
	case strings.HasSuffix(u, "KB"):
		mult, u = 1<<10, strings.TrimSuffix(u, "KB")
	case strings.HasSuffix(u, "B"):
		u = strings.TrimSuffix(u, "B")
	}
	n, err := strconv.Atoi(strings.TrimSpace(u))
	// n*mult must not wrap: a wrapped size would slip under the daemon's
	// partition cap as a negative or zero partition.
	if err != nil || n <= 0 || n > math.MaxInt/mult {
		return 0, fmt.Errorf("parparaw: invalid size %q", s)
	}
	return n * mult, nil
}

// parseSchemaSpec parses "name:type,name:type" into a Schema. Accepted
// type names are the Type.String spellings plus "timestamp" for
// TimestampMicros.
func parseSchemaSpec(spec string) (*Schema, error) {
	var fields []Field
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		name, typeName, ok := strings.Cut(part, ":")
		if !ok || name == "" {
			return nil, fmt.Errorf("parparaw: invalid schema field %q (want name:type)", part)
		}
		var t Type
		switch strings.ToLower(typeName) {
		case "string":
			t = String
		case "int64", "int":
			t = Int64
		case "float64", "float":
			t = Float64
		case "bool":
			t = Bool
		case "date32", "date":
			t = Date32
		case "timestamp", "timestamp[us]":
			t = TimestampMicros
		default:
			return nil, fmt.Errorf("parparaw: unknown schema type %q in %q", typeName, part)
		}
		fields = append(fields, Field{Name: name, Type: t})
	}
	if len(fields) == 0 {
		return nil, fmt.Errorf("parparaw: empty schema spec")
	}
	return NewSchema(fields...), nil
}
