package parparaw

// Chaos/soak suite for the ingestion daemon: a thousand requests
// through flaky bodies, permanent failures, and mid-request
// disconnects, concurrently across tenants. The contracts under test:
// transient faults are retried invisibly, failures answer typed
// partial-result responses (never a 5xx for a client fault), goroutines
// and arena pools balance after the storm, and per-tenant statistics
// never bleed across tenants — each tenant's counters equal what that
// tenant's own responses reported — and the /metrics totals equal the
// sums over every response's summary or partial summary.

import (
	"context"
	"encoding/json"

	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/testleak"
)

// permanentAfter is an io.Reader that delivers n bytes of r and then
// fails every call with a permanent injected error — the client whose
// upload dies mid-flight.
type permanentAfter struct {
	r    io.Reader
	left int
}

func (p *permanentAfter) Read(b []byte) (int, error) {
	if p.left <= 0 {
		return 0, &faultinject.PermanentError{Seq: 1}
	}
	if len(b) > p.left {
		b = b[:p.left]
	}
	n, err := p.r.Read(b)
	p.left -= n
	return n, err
}

// TestServerChaosSoak is the long soak: every request body goes through
// a deterministic FlakyReader (transient errors + short reads) cleared
// by the server's retry policy; a slice of requests die permanently or
// are canceled mid-flight. 1000 requests (200 under -short) across 3
// tenants and 2 dialects, 8 at a time.
func TestServerChaosSoak(t *testing.T) {
	base := testleak.Count()

	var seed atomic.Uint64
	srv := NewServer(ServerConfig{
		Retry: RetryPolicy{
			MaxAttempts: 5,
			BaseDelay:   100 * time.Microsecond,
			MaxDelay:    time.Millisecond,
			Retryable:   faultinject.IsTransient,
		},
		WrapBody: func(r io.Reader) io.Reader {
			return &faultinject.FlakyReader{
				R:              r,
				Seed:           seed.Add(1),
				TransientEvery: 4,
				ShortReads:     true,
			}
		},
	})

	requests := 1000
	if testing.Short() {
		requests = 200
	}
	tenants := []string{"red", "green", "blue"}
	csvBody := "city,code,pax\n" + strings.Repeat("New York,JFK,100\nBoston,BOS,50\n", 120)
	jsonlBody := strings.Repeat(`{"city":"NYC","code":"JFK","pax":"100"}`+"\n", 180)

	type tally struct {
		requests, errors, rows int64
	}
	const workers = 8
	perWorker := make([]map[string]*tally, workers)
	summed := make([]summaryTotals, workers)
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		perWorker[w] = map[string]*tally{}
		for _, tn := range tenants {
			perWorker[w][tn] = &tally{}
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				tenant := tenants[i%len(tenants)]
				tl := perWorker[w][tenant]
				tl.requests++

				query := "/ingest?partition=1KB&tenant=" + tenant
				var body io.Reader
				if i%2 == 0 {
					body = strings.NewReader(csvBody)
					query += "&format=csv&header=1"
				} else {
					body = strings.NewReader(jsonlBody)
					query += "&format=jsonl"
				}

				ctx := context.Background()
				var cancel context.CancelFunc
				switch {
				case i%23 == 0:
					// Mid-request disconnect: endless body, canceled
					// shortly after streaming starts.
					ctx, cancel = context.WithCancel(ctx)
					body = &endlessRows{row: []byte("x,y,1\n")}
					query = "/ingest?partition=1KB&tenant=" + tenant + "&format=csv"
					time.AfterFunc(2*time.Millisecond, cancel)
				case i%17 == 0:
					// Permanent mid-upload death after ~2KB.
					body = &permanentAfter{r: body, left: 2048}
				}

				req := httptest.NewRequest(http.MethodPost, query, body).WithContext(ctx)
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				if cancel != nil {
					cancel()
				}

				switch rec.Code {
				case http.StatusOK:
					var sum IngestSummary
					if err := json.Unmarshal(rec.Body.Bytes(), &sum); err != nil {
						t.Errorf("request %d: bad summary: %v", i, err)
						continue
					}
					tl.rows += sum.Rows
					summed[w].add(&sum)
				case http.StatusBadRequest, StatusClientClosedRequest:
					tl.errors++
					var ie IngestError
					if err := json.Unmarshal(rec.Body.Bytes(), &ie); err != nil {
						t.Errorf("request %d: bad error body: %v", i, err)
						continue
					}
					if ie.Kind != "input" && ie.Kind != "canceled" {
						t.Errorf("request %d: kind %q for status %d", i, ie.Kind, rec.Code)
					}
					// Typed partial results still count rows: the tenant
					// paid for them, the stats must show them.
					if ie.Partial != nil {
						tl.rows += ie.Partial.Rows
						summed[w].add(ie.Partial)
					}
				default:
					t.Errorf("request %d: unexpected status %d: %s", i, rec.Code, rec.Body.Bytes())
					tl.errors++
				}
			}
		}(w)
	}
	for i := 0; i < requests; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	// Merge the per-worker ledgers and hold the server's per-tenant
	// counters to them: any cross-tenant bleed breaks the equality.
	for _, tenant := range tenants {
		var want tally
		for w := 0; w < workers; w++ {
			want.requests += perWorker[w][tenant].requests
			want.errors += perWorker[w][tenant].errors
			want.rows += perWorker[w][tenant].rows
		}
		gotReq, gotErr, _, gotRows := srv.tenantSnapshot(tenant)
		if gotReq != want.requests || gotErr != want.errors || gotRows != want.rows {
			t.Errorf("tenant %s: server says %d req / %d err / %d rows, clients saw %d / %d / %d",
				tenant, gotReq, gotErr, gotRows, want.requests, want.errors, want.rows)
		}
	}

	// The daemon's totals are the same runs folded with Stats.Add: each
	// equals the sum over the summaries the clients received.
	var want summaryTotals
	for w := range summed {
		want.add(&summed[w].IngestSummary)
	}
	metrics := scrapeMetrics(t, srv)
	for name, v := range want.series() {
		if got := metrics[name]; got != float64(v) {
			t.Errorf("/metrics %s = %v, responses sum to %d", name, got, v)
		}
	}

	// The storm must have actually stormed.
	if metrics["parparawd_retries_total"] == 0 {
		t.Error("soak produced no retries; FlakyReader wiring is dead")
	}
	if srv.m.status499.Load() == 0 {
		t.Error("soak produced no canceled requests")
	}
	if srv.m.status400.Load() == 0 {
		t.Error("soak produced no permanent input failures")
	}
	if srv.m.status5xx.Load() != 0 {
		t.Errorf("soak produced %d 5xx responses; every injected fault is a client fault", srv.m.status5xx.Load())
	}

	// Balance: the admission ledger is empty, every tenant engine's
	// arena pool has nothing in flight, and all goroutines joined.
	srv.admitMu.Lock()
	admitted := srv.admitted
	srv.admitMu.Unlock()
	if admitted != 0 {
		t.Errorf("admission ledger holds %d bytes after drain", admitted)
	}
	for _, tenant := range tenants {
		for _, e := range srv.tenantEngines(tenant) {
			if e.arenasInUse() != 0 {
				t.Errorf("tenant %s: %d arenas still checked out", tenant, e.arenasInUse())
			}
		}
	}
	testleak.After(t, base)
}

// TestServerPartialResultTyped: a permanent body failure mid-stream
// answers 400 with the partial progress drained before the failure —
// rows and partitions the client can use instead of re-uploading blind.
func TestServerPartialResultTyped(t *testing.T) {
	srv := NewServer(ServerConfig{})
	body := "a,b\n" + strings.Repeat("1,2\n3,4\n", 1024) // ~8KB
	rec := postIngest(srv, "/ingest?partition=1KB&header=1",
		&permanentAfter{r: strings.NewReader(body), left: 6 << 10})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", rec.Code, rec.Body.Bytes())
	}
	ie := decodeIngestError(t, rec)
	if ie.Kind != "input" {
		t.Errorf("kind %q, want input", ie.Kind)
	}
	if ie.Partial == nil {
		t.Fatal("no partial result on a mid-stream failure")
	}
	if ie.Partial.Rows == 0 || ie.Partial.Partitions == 0 {
		t.Errorf("partial = %d rows / %d partitions, want progress before the failure",
			ie.Partial.Rows, ie.Partial.Partitions)
	}
}

// TestServerNetworkDisconnects: real TCP clients vanishing mid-upload.
// The server must classify every such request as a client fault (400 or
// 499, depending on whether the read error or the context cancel is
// seen first), never a 5xx or a success, and settle with nothing in
// flight.
func TestServerNetworkDisconnects(t *testing.T) {
	base := testleak.Count()
	srv := NewServer(ServerConfig{})
	ts := httptest.NewServer(srv.Handler())

	const disconnects = 20
	for i := 0; i < disconnects; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		pr, pw := io.Pipe()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/ingest?partition=1KB", pr)
		if err != nil {
			t.Fatal(err)
		}
		errc := make(chan error, 1)
		go func() {
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
			errc <- err
		}()
		// Stream a few partitions, then vanish.
		for j := 0; j < 4; j++ {
			if _, err := io.WriteString(pw, strings.Repeat("x,1\n", 512)); err != nil {
				break
			}
		}
		cancel()
		pw.CloseWithError(io.ErrClosedPipe)
		if err := <-errc; err == nil {
			t.Errorf("disconnect %d: client request unexpectedly succeeded", i)
		}
	}

	// The handlers finish asynchronously after their clients left.
	waitFor(t, func() bool { return srv.m.inflight.Load() == 0 })
	waitFor(t, func() bool {
		return srv.m.status400.Load()+srv.m.status499.Load() == disconnects
	})
	if got := srv.m.status5xx.Load(); got != 0 {
		t.Errorf("%d disconnects produced %d 5xx responses", disconnects, got)
	}
	if got := srv.m.status2xx.Load(); got != 0 {
		t.Errorf("%d disconnects produced %d successes", disconnects, got)
	}

	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	testleak.After(t, base)
}

// summaryTotals sums the counters of ingest summaries, complete or
// partial, for comparison with the daemon's /metrics totals.
type summaryTotals struct{ IngestSummary }

func (t *summaryTotals) add(s *IngestSummary) {
	t.Rows += s.Rows
	t.InputBytes += s.InputBytes
	t.Partitions += s.Partitions
	t.RowsPruned += s.RowsPruned
	t.BytesSkipped += s.BytesSkipped
	t.Retries += s.Retries
	t.QuarantinedPartitions += s.QuarantinedPartitions
	t.QuarantinedRecords += s.QuarantinedRecords
	t.SerialFallbacks += s.SerialFallbacks
	t.ReemittedChunks += s.ReemittedChunks
}

// series names each summed counter by its /metrics series.
func (t *summaryTotals) series() map[string]int64 {
	return map[string]int64{
		"parparawd_rows_total":                   t.Rows,
		"parparawd_input_bytes_total":            t.InputBytes,
		"parparawd_partitions_total":             int64(t.Partitions),
		"parparawd_rows_pruned_total":            t.RowsPruned,
		"parparawd_bytes_skipped_total":          t.BytesSkipped,
		"parparawd_retries_total":                t.Retries,
		"parparawd_quarantined_partitions_total": int64(t.QuarantinedPartitions),
		"parparawd_quarantined_records_total":    t.QuarantinedRecords,
		"parparawd_serial_fallbacks_total":       int64(t.SerialFallbacks),
		"parparawd_reemitted_chunks_total":       int64(t.ReemittedChunks),
	}
}
