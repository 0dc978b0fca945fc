package parparaw

// End-to-end suite for the ingestion daemon's serving layer: golden
// round-trips pinning the HTTP path byte-identical to the library path
// (every dialect × schema-present/inferred × pushdown on/off), the
// error→status mapping of the taxonomy (400/429/499/500), plan-cache
// hit accounting on the wire and in /metrics, and multi-tenant
// bookkeeping. Run under -race: the server is one Engine cache and one
// admission ledger shared across request goroutines.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/testleak"
	"repro/internal/workload"
)

// serverDialectCases are the golden inputs: one deterministic document
// per registered dialect, all with ≥2 columns and ≥3 data rows so the
// pushdown variants have something to project and prune.
var serverDialectCases = []struct {
	name   string
	format string
	header bool
	input  string
}{
	{"csv", "csv", true,
		"city,code,pax\nNew York,JFK,100\nBoston,BOS,50\nChicago,ORD,75\n,XX,0\n"},
	{"tsv", "tsv", true,
		"id\tname\tqty\n1\talpha\t10\n2\tbeta\t20\n3\t\t30\n"},
	{"psv", "psv", true,
		"id|name|qty\n1|alpha|10\n2|beta|20\n3||30\n"},
	{"jsonl", "jsonl", true,
		`{"city":"NYC","code":"JFK","pax":"100"}` + "\n" +
			`{"city":"BOS","code":"BOS","pax":"50"}` + "\n" +
			`{"city":"ORD","code":"ORD","pax":"75"}` + "\n"},
	{"weblog", "weblog", true,
		"#Fields: date time method status\n" +
			"2026-01-01 00:00:01 GET 200\n" +
			"2026-01-02 00:00:02 POST 404\n" +
			"2026-01-03 00:00:03 \"PUT x\" 500\n"},
}

// directOptions builds the Options the server builds for the same query
// parameters, through the same exported spec parsers — the reference
// side of the byte-identity comparison.
func directOptions(t *testing.T, format string, header bool, schemaSpec, selectSpec, whereSpec string) Options {
	t.Helper()
	f, err := FormatByName(format)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Format: f, HasHeader: header}
	if schemaSpec != "" {
		schema, err := parseSchemaSpec(schemaSpec)
		if err != nil {
			t.Fatal(err)
		}
		opts.Schema = schema
	}
	if selectSpec != "" {
		if opts.Scan.Select, err = ParseSelectSpec(selectSpec); err != nil {
			t.Fatal(err)
		}
	}
	if whereSpec != "" {
		if opts.Scan.Where, err = ParseWhereSpec(whereSpec); err != nil {
			t.Fatal(err)
		}
	}
	return opts
}

// schemaSpecOf renders a table's schema in the daemon's schema query
// grammar, so the schema-present variants request exactly what the
// inferred run produced.
func schemaSpecOf(tbl *Table) string {
	var parts []string
	for _, f := range tbl.Schema().Fields {
		parts = append(parts, f.Name+":"+f.Type.String())
	}
	return strings.Join(parts, ",")
}

// TestServerGoldenRoundTrips: for every dialect × schema-present vs
// inferred × pushdown on vs off, output=csv through the daemon must be
// byte-identical to WriteCSV over Engine.ParseReader with the same
// Options — the serving layer adds transport, never semantics.
func TestServerGoldenRoundTrips(t *testing.T) {
	base := testleak.Count()
	srv := NewServer(ServerConfig{})
	ts := httptest.NewServer(srv.Handler())

	for _, dc := range serverDialectCases {
		// The schema the inferred run settles on, reused verbatim by the
		// schema-present variants.
		inferred, err := func() (*Table, error) {
			eng, err := NewEngine(directOptions(t, dc.format, dc.header, "", "", ""))
			if err != nil {
				return nil, err
			}
			defer eng.Close()
			res, err := eng.ParseReader(strings.NewReader(dc.input))
			if err != nil {
				return nil, err
			}
			return res.Table, nil
		}()
		if err != nil {
			t.Fatalf("%s: reference parse: %v", dc.name, err)
		}
		schemaSpec := schemaSpecOf(inferred)

		for _, withSchema := range []bool{false, true} {
			for _, withPushdown := range []bool{false, true} {
				name := fmt.Sprintf("%s/schema=%v/pushdown=%v", dc.name, withSchema, withPushdown)
				t.Run(name, func(t *testing.T) {
					spec, sel, where := "", "", ""
					if withSchema {
						spec = schemaSpec
					}
					if withPushdown {
						sel, where = "0,1", "0:notnull"
					}

					q := url.Values{"format": {dc.format}, "output": {"csv"}}
					if dc.header {
						q.Set("header", "1")
					}
					if spec != "" {
						q.Set("schema", spec)
					}
					if sel != "" {
						q.Set("select", sel)
					}
					if where != "" {
						q.Set("where", where)
					}
					resp, err := http.Post(ts.URL+"/ingest?"+q.Encode(), "application/octet-stream", strings.NewReader(dc.input))
					if err != nil {
						t.Fatal(err)
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("status %d: %s", resp.StatusCode, body)
					}

					eng, err := NewEngine(directOptions(t, dc.format, dc.header, spec, sel, where))
					if err != nil {
						t.Fatal(err)
					}
					defer eng.Close()
					res, err := eng.ParseReader(strings.NewReader(dc.input))
					if err != nil {
						t.Fatal(err)
					}
					var want bytes.Buffer
					if err := WriteCSV(&want, res.Table); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(body, want.Bytes()) {
						t.Errorf("daemon CSV differs from direct parse:\n daemon: %q\n direct: %q", body, want.Bytes())
					}
					if got := resp.Header.Get("X-Parparaw-Rows"); got != fmt.Sprint(res.Table.NumRows()) {
						t.Errorf("X-Parparaw-Rows = %q, want %d", got, res.Table.NumRows())
					}
				})
			}
		}
	}
	// Close the server and the client's idle keep-alive connections
	// before the leak check, so it measures the pipeline, not lingering
	// transport goroutines.
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	testleak.After(t, base)
}

// TestServerSummaryMatchesDirect: the summary response's row/column
// counts must agree with the direct parse of the same input.
func TestServerSummaryMatchesDirect(t *testing.T) {
	srv := NewServer(ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, dc := range serverDialectCases {
		t.Run(dc.name, func(t *testing.T) {
			q := url.Values{"format": {dc.format}}
			if dc.header {
				q.Set("header", "1")
			}
			resp, err := http.Post(ts.URL+"/ingest?"+q.Encode(), "", strings.NewReader(dc.input))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var sum IngestSummary
			if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
				t.Fatal(err)
			}

			eng, err := NewEngine(directOptions(t, dc.format, dc.header, "", "", ""))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			res, err := eng.ParseReader(strings.NewReader(dc.input))
			if err != nil {
				t.Fatal(err)
			}
			if int(sum.Rows) != res.Table.NumRows() || sum.Columns != res.Table.NumColumns() {
				t.Errorf("summary %dx%d, direct %dx%d", sum.Rows, sum.Columns, res.Table.NumRows(), res.Table.NumColumns())
			}
			if sum.Tenant != "default" {
				t.Errorf("tenant = %q, want default", sum.Tenant)
			}
			if sum.InputBytes != int64(len(dc.input)) {
				t.Errorf("input_bytes = %d, want %d", sum.InputBytes, len(dc.input))
			}
		})
	}
}

// postIngest drives the handler directly (no network) and returns the
// recorder — the harness for the error-mapping table, where the
// response status must be observable even when the client is the one
// who went away.
func postIngest(s *Server, target string, body io.Reader) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, target, body)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func decodeIngestError(t *testing.T, rec *httptest.ResponseRecorder) IngestError {
	t.Helper()
	var ie IngestError
	if err := json.Unmarshal(rec.Body.Bytes(), &ie); err != nil {
		t.Fatalf("error body is not IngestError JSON: %v: %s", err, rec.Body.Bytes())
	}
	return ie
}

// TestServerBadRequests: malformed query parameters are 400 with kind
// "request" — before any engine is compiled or any byte is read.
func TestServerBadRequests(t *testing.T) {
	srv := NewServer(ServerConfig{})
	cases := []struct{ name, target string }{
		{"unknown-param", "/ingest?bogus=1"},
		{"unknown-format", "/ingest?format=nope"},
		{"bad-bool", "/ingest?header=2"},
		{"bad-mode", "/ingest?mode=sideways"},
		{"bad-select", "/ingest?select=a,b"},
		{"bad-where", "/ingest?where=garbage"},
		{"bad-where-range", "/ingest?where=0:int:5"},
		{"bad-schema", "/ingest?schema=nocolon"},
		{"bad-schema-type", "/ingest?schema=a:varchar"},
		{"bad-partition", "/ingest?partition=-3MB"},
		// Sizes whose byte count overflows an int: they would otherwise
		// wrap to a negative or zero partition under the cap.
		{"partition-wraps-negative", "/ingest?partition=8589934592GB"},
		{"partition-wraps-zero", "/ingest?partition=17179869184GB"},
		{"bad-output", "/ingest?output=parquet"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := postIngest(srv, tc.target, strings.NewReader("a,b\n1,2\n"))
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", rec.Code, rec.Body.Bytes())
			}
			if ie := decodeIngestError(t, rec); ie.Kind != "request" {
				t.Errorf("kind %q, want request", ie.Kind)
			}
		})
	}
	if srv.cache.Len() != 0 {
		t.Errorf("bad requests compiled %d engines", srv.cache.Len())
	}
}

// TestServerErrorMapping pins the taxonomy→status contract end to end:
// each typed failure of the streaming run answers the HTTPStatus of its
// sentinel, with the ErrorKind in the JSON body.
func TestServerErrorMapping(t *testing.T) {
	t.Run("malformed-400", func(t *testing.T) {
		srv := NewServer(ServerConfig{})
		rec := postIngest(srv, "/ingest?validate=1", strings.NewReader("ok,row\nbroken,\"unterminated"))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400: %s", rec.Code, rec.Body.Bytes())
		}
		if ie := decodeIngestError(t, rec); ie.Kind != "malformed" {
			t.Errorf("kind %q, want malformed", ie.Kind)
		}
	})

	t.Run("input-400", func(t *testing.T) {
		srv := NewServer(ServerConfig{WrapBody: func(r io.Reader) io.Reader {
			return &faultinject.FlakyReader{R: r, Seed: 7, PermanentAt: 8}
		}})
		rec := postIngest(srv, "/ingest", strings.NewReader(strings.Repeat("a,b\n", 1024)))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d, want 400: %s", rec.Code, rec.Body.Bytes())
		}
		if ie := decodeIngestError(t, rec); ie.Kind != "input" {
			t.Errorf("kind %q, want input", ie.Kind)
		}
	})

	t.Run("budget-429", func(t *testing.T) {
		// A 1-byte budget rejects any estimate — except when nothing is
		// in flight, the progress guarantee. Hold the first request open
		// on a pipe so the second deterministically finds the ledger
		// non-empty.
		srv := NewServer(ServerConfig{DeviceBudget: 1})
		pr, pw := io.Pipe()
		done := make(chan *httptest.ResponseRecorder, 1)
		go func() { done <- postIngest(srv, "/ingest", pr) }()
		waitFor(t, func() bool {
			srv.admitMu.Lock()
			defer srv.admitMu.Unlock()
			return srv.admitted > 0
		})

		rec := postIngest(srv, "/ingest", strings.NewReader("a,b\n1,2\n"))
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429: %s", rec.Code, rec.Body.Bytes())
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Error("429 without Retry-After")
		}
		if ie := decodeIngestError(t, rec); ie.Kind != "budget" {
			t.Errorf("kind %q, want budget", ie.Kind)
		}

		io.WriteString(pw, "a,b\n1,2\n")
		pw.Close()
		if first := <-done; first.Code != http.StatusOK {
			t.Fatalf("held request finished %d: %s", first.Code, first.Body.Bytes())
		}
		// The ledger must drain so the next request is admitted again.
		waitFor(t, func() bool {
			srv.admitMu.Lock()
			defer srv.admitMu.Unlock()
			return srv.admitted == 0
		})
		if rec := postIngest(srv, "/ingest", strings.NewReader("a,b\n1,2\n")); rec.Code != http.StatusOK {
			t.Fatalf("post-drain request %d, want 200", rec.Code)
		}
	})

	t.Run("canceled-499", func(t *testing.T) {
		srv := NewServer(ServerConfig{})
		ctx, cancel := context.WithCancel(context.Background())
		// An endless body: the run can only ever finish by noticing the
		// cancel at an inter-partition check.
		req := httptest.NewRequest(http.MethodPost, "/ingest?partition=1KB",
			&endlessRows{row: []byte(strings.Repeat("x", 60) + ",1\n")}).WithContext(ctx)
		rec := httptest.NewRecorder()
		done := make(chan struct{})
		go func() { srv.ServeHTTP(rec, req); close(done) }()

		time.Sleep(20 * time.Millisecond) // let a few partitions stream
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("handler did not return after cancel")
		}

		if rec.Code != StatusClientClosedRequest {
			t.Fatalf("status %d, want %d: %s", rec.Code, StatusClientClosedRequest, rec.Body.Bytes())
		}
		if ie := decodeIngestError(t, rec); ie.Kind != "canceled" {
			t.Errorf("kind %q, want canceled", ie.Kind)
		}
	})

	t.Run("internal-500", func(t *testing.T) {
		var fired atomic.Bool
		faultinject.SetRingParse(func(p int) {
			if fired.CompareAndSwap(false, true) {
				panic("injected serving panic")
			}
		})
		defer faultinject.SetRingParse(nil)

		srv := NewServer(ServerConfig{})
		rec := postIngest(srv, "/ingest", strings.NewReader("a,b\n1,2\n3,4\n"))
		if !fired.Load() {
			t.Fatal("ring-parse hook never fired")
		}
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("status %d, want 500: %s", rec.Code, rec.Body.Bytes())
		}
		if ie := decodeIngestError(t, rec); ie.Kind != "internal" {
			t.Errorf("kind %q, want internal", ie.Kind)
		}
		faultinject.SetRingParse(nil)
		// The contained panic must not poison the cached engine.
		if rec := postIngest(srv, "/ingest", strings.NewReader("a,b\n1,2\n")); rec.Code != http.StatusOK {
			t.Fatalf("post-panic request %d, want 200: %s", rec.Code, rec.Body.Bytes())
		}
	})
}

// endlessRows is an io.Reader that produces the same record forever —
// the body of a request that can only end by cancellation.
type endlessRows struct {
	row []byte
	off int
}

func (e *endlessRows) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], e.row[e.off:])
		n += c
		e.off = (e.off + c) % len(e.row)
	}
	return n, nil
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerPlanCacheHit: the acceptance gate — a repeated-format
// request is a measured plan-cache hit, visible on the response header,
// in the summary, and as a counter in /metrics.
func TestServerPlanCacheHit(t *testing.T) {
	srv := NewServer(ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(tenant string) (IngestSummary, string) {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/ingest?format=csv&header=1&tenant="+tenant,
			strings.NewReader("a,b\n1,2\n"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sum IngestSummary
		if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
			t.Fatal(err)
		}
		return sum, resp.Header.Get("X-Parparaw-Cache")
	}

	sum1, c1 := post("alpha")
	if c1 != "miss" || sum1.CacheHit {
		t.Fatalf("first request: header %q, cache_hit %v; want a miss", c1, sum1.CacheHit)
	}
	sum2, c2 := post("alpha")
	if c2 != "hit" || !sum2.CacheHit {
		t.Fatalf("repeat request: header %q, cache_hit %v; want a hit", c2, sum2.CacheHit)
	}
	// A different tenant with the same configuration shares the compiled
	// plan: still a cache hit, no second compilation.
	if sum3, c3 := post("beta"); c3 != "hit" || !sum3.CacheHit {
		t.Fatalf("cross-tenant request: header %q, cache_hit %v; want a hit", c3, sum3.CacheHit)
	}

	cs := srv.cache.Stats()
	if cs.Misses != 1 || cs.Hits != 2 || cs.Engines != 1 {
		t.Errorf("cache stats = %+v, want 1 miss, 2 hits, 1 engine", cs)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"parparawd_cache_hits_total 2",
		"parparawd_cache_misses_total 1",
		"parparawd_cache_engines 1",
		`parparawd_tenant_requests_total{tenant="alpha"} 2`,
		`parparawd_tenant_requests_total{tenant="beta"} 1`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Each tenant parses on its own engine over the shared plan.
	if a, b := srv.tenantEngines("alpha"), srv.tenantEngines("beta"); len(a) != 1 || len(b) != 1 {
		t.Fatalf("tenant engines: alpha %d, beta %d, want 1 each", len(a), len(b))
	} else if a[0] == b[0] {
		t.Error("tenants share an Engine; arena pools must be private")
	} else if a[0].plan != b[0].plan {
		t.Error("tenant engines do not share the compiled plan")
	}
}

// scrapeMetrics renders /metrics through the handler and returns every
// sample by series (name plus labels, as exposed).
func scrapeMetrics(t *testing.T, s *Server) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series, value, ok := strings.Cut(line, " ")
		v, err := strconv.ParseFloat(value, 64)
		if !ok || err != nil {
			t.Fatalf("/metrics line %q is not \"series value\"", line)
		}
		out[series] = v
	}
	return out
}

// TestServerAdmissionEstimateCoversFootprint holds the daemon's
// admission charge to the footprint it stands for: for every dialect,
// a one-shot parse of a body of serve-mix's 32 KiB partition size must
// report a device peak within admissionFootprintFactor × the body. The
// bodies are the benchmark's: csv on taxi and on yelp, tsv and psv on
// taxi with the delimiter swapped, jsonl, and weblog.
func TestServerAdmissionEstimateCoversFootprint(t *testing.T) {
	const size = 32 << 10
	taxi := workload.Taxi().Generate(size, 1)
	cases := []struct {
		dialect, input string
		body           []byte
		opts           Options
	}{
		{"csv", "taxi", taxi, Options{Schema: schemaFromInternal(workload.Taxi().Schema)}},
		{"csv", "yelp", workload.Yelp().Generate(size, 2), Options{Schema: schemaFromInternal(workload.Yelp().Schema)}},
		{"tsv", "taxi", bytes.ReplaceAll(taxi, []byte{','}, []byte{'\t'}), Options{}},
		{"psv", "taxi", bytes.ReplaceAll(taxi, []byte{','}, []byte{'|'}), Options{}},
		{"jsonl", "jsonl", workload.JSONLines().Generate(size, 3), Options{}},
		{"weblog", "weblog", workload.Weblog().Generate(size, 4), Options{HasHeader: true}},
	}
	for _, tc := range cases {
		name := tc.dialect + "/" + tc.input
		format, err := FormatByName(tc.dialect)
		if err != nil {
			t.Fatal(err)
		}
		tc.opts.Format = format
		e, err := NewEngine(tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Parse(tc.body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		per := float64(res.Stats.DeviceBytes) / float64(len(tc.body))
		t.Logf("%s: device peak %.2f× the body", name, per)
		if per > admissionFootprintFactor {
			t.Errorf("%s: device peak %.2f× the %d-byte body exceeds the admission factor %d", name, per, len(tc.body), admissionFootprintFactor)
		}
	}
}

// TestServerMetricsSeriesNames: every series /metrics exposed before
// the daemon's counters became one Stats total is still exposed under
// its name. cmd/bench reads seven of them.
func TestServerMetricsSeriesNames(t *testing.T) {
	srv := NewServer(ServerConfig{})
	if rec := postIngest(srv, "/ingest?header=1&tenant=t1", strings.NewReader("a,b\n1,2\n3,4\n")); rec.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", rec.Code, rec.Body.Bytes())
	}
	metrics := scrapeMetrics(t, srv)
	for _, series := range []string{
		"parparawd_requests_total",
		"parparawd_inflight_requests",
		`parparawd_responses_total{code="2xx"}`,
		`parparawd_responses_total{code="400"}`,
		`parparawd_responses_total{code="429"}`,
		`parparawd_responses_total{code="499"}`,
		`parparawd_responses_total{code="5xx"}`,
		"parparawd_input_bytes_total",
		"parparawd_output_bytes_total",
		"parparawd_rows_total",
		"parparawd_rows_pruned_total",
		"parparawd_bytes_skipped_total",
		"parparawd_partitions_total",
		"parparawd_retries_total",
		"parparawd_retried_bytes_total",
		"parparawd_quarantined_partitions_total",
		"parparawd_quarantined_records_total",
		"parparawd_serial_fallbacks_total",
		"parparawd_reemitted_chunks_total",
		"parparawd_invalid_inputs_total",
		"parparawd_admission_rejects_total",
		"parparawd_admitted_device_bytes",
		"parparawd_device_budget_bytes",
		"parparawd_cache_hits_total",
		"parparawd_cache_misses_total",
		"parparawd_cache_evictions_total",
		"parparawd_cache_engines",
		"parparawd_cache_reserved_bytes",
		`parparawd_stage_busy_seconds_total{stage="read"}`,
		`parparawd_stage_busy_seconds_total{stage="boundary"}`,
		`parparawd_stage_busy_seconds_total{stage="parse"}`,
		`parparawd_stage_busy_seconds_total{stage="emit"}`,
		`parparawd_tenant_requests_total{tenant="t1"}`,
		`parparawd_tenant_errors_total{tenant="t1"}`,
		`parparawd_tenant_input_bytes_total{tenant="t1"}`,
		`parparawd_tenant_rows_total{tenant="t1"}`,
		"parparawd_goroutines",
		"parparawd_uptime_seconds",
	} {
		if _, ok := metrics[series]; !ok {
			t.Errorf("/metrics no longer exposes %s", series)
		}
	}
	if got := metrics["parparawd_rows_total"]; got != 2 {
		t.Errorf("rows_total = %v, want 2", got)
	}
	if got := metrics[`parparawd_tenant_rows_total{tenant="t1"}`]; got != 2 {
		t.Errorf("tenant rows = %v, want 2", got)
	}
}

// TestServerEndpoints: the non-ingest surface.
func TestServerEndpoints(t *testing.T) {
	srv := NewServer(ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/dialects")
	if err != nil {
		t.Fatal(err)
	}
	var dialects []struct{ Name string }
	err = json.NewDecoder(resp.Body).Decode(&dialects)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, d := range dialects {
		names[d.Name] = true
	}
	for _, want := range []string{"csv", "tsv", "psv", "jsonl", "weblog"} {
		if !names[want] {
			t.Errorf("/dialects missing %q (got %v)", want, dialects)
		}
	}

	// GET on /ingest is not a thing.
	resp, err = http.Get(ts.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /ingest status %d, want 405", resp.StatusCode)
	}
}

// TestServerErrorsAreTyped: every sentinel round-trips through
// HTTPStatus/ErrorKind exactly once — the table the DESIGN.md section
// documents.
func TestServerErrorsAreTyped(t *testing.T) {
	cases := []struct {
		err    error
		status int
		kind   string
	}{
		{nil, http.StatusOK, ""},
		{ErrInput, http.StatusBadRequest, "input"},
		{ErrMalformed, http.StatusBadRequest, "malformed"},
		{ErrUnstreamable, http.StatusBadRequest, "unstreamable"},
		{ErrBudget, http.StatusTooManyRequests, "budget"},
		{ErrCanceled, StatusClientClosedRequest, "canceled"},
		{ErrInternal, http.StatusInternalServerError, "internal"},
		{ErrConfig, http.StatusBadRequest, "config"},
		{errors.New("mystery"), http.StatusInternalServerError, "error"},
		{fmt.Errorf("wrapped: %w", ErrBudget), http.StatusTooManyRequests, "budget"},
	}
	for _, tc := range cases {
		if got := HTTPStatus(tc.err); got != tc.status {
			t.Errorf("HTTPStatus(%v) = %d, want %d", tc.err, got, tc.status)
		}
		if got := ErrorKind(tc.err); got != tc.kind {
			t.Errorf("ErrorKind(%v) = %q, want %q", tc.err, got, tc.kind)
		}
	}
}
