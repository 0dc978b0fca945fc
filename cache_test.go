package parparaw

// Differential and behavioural suite for the plan cache: a cached
// engine must be indistinguishable from a freshly compiled one
// (byte-identical tables over the parity harness's comparator),
// near-identical configurations must never share a fingerprint, and
// eviction must actually release memory — evicted engines drain their
// arena pools even with runs in flight at eviction time.

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/convert"
	"repro/internal/testleak"
)

// cacheDifferentialConfigs spans the Options space the daemon exercises:
// dialects, schema present/inferred, pushdown on/off, tagging modes.
func cacheDifferentialConfigs(t *testing.T) []struct {
	name  string
	opts  Options
	input string
} {
	t.Helper()
	mustFormat := func(name string) *Format {
		f, err := FormatByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	csvIn := "city,code,pax\nNew York,JFK,100\nBoston,BOS,50\nChicago,ORD,75\n"
	return []struct {
		name  string
		opts  Options
		input string
	}{
		{"csv-inferred", Options{Format: mustFormat("csv"), HasHeader: true}, csvIn},
		{"csv-schema", Options{
			Format:    mustFormat("csv"),
			HasHeader: true,
			Schema:    NewSchema(Field{Name: "city"}, Field{Name: "code"}, Field{Name: "pax", Type: Int64}),
		}, csvIn},
		{"csv-pushdown", Options{
			Format:    mustFormat("csv"),
			HasHeader: true,
			Scan:      ScanOptions{Select: []int{0, 2}, Where: []Predicate{IntRange(2, 0, 80)}},
		}, csvIn},
		{"tsv-inline", Options{Format: mustFormat("tsv"), Mode: InlineTerminated},
			"1\talpha\t10\n2\tbeta\t20\n"},
		{"jsonl", Options{Format: mustFormat("jsonl"), HasHeader: true},
			`{"a":"1","b":"x"}` + "\n" + `{"a":"2","b":"y"}` + "\n"},
		{"weblog-validate", Options{Format: mustFormat("weblog"), Validate: true},
			"#Fields: date method\n2026-01-01 GET\n2026-01-02 POST\n"},
	}
}

// TestCacheDifferential: for every configuration, the table parsed on a
// cache-served engine is byte-identical to one parsed on a freshly
// compiled engine — and the second Get is a hit returning the same
// engine.
func TestCacheDifferential(t *testing.T) {
	cache := NewEngineCache(0)
	for _, tc := range cacheDifferentialConfigs(t) {
		t.Run(tc.name, func(t *testing.T) {
			cached, err := cache.Get(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			again, _, hit, err := cache.GetKeyed(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !hit {
				t.Fatal("second Get for identical Options was a miss")
			}
			if again != cached {
				t.Fatal("second Get returned a different engine")
			}

			fresh, err := NewEngine(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()

			got, err := cached.ParseReader(strings.NewReader(tc.input))
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.ParseReader(strings.NewReader(tc.input))
			if err != nil {
				t.Fatal(err)
			}
			assertTablesIdentical(t, tc.name, got.Table, want.Table)
		})
	}
	if st := cache.Stats(); st.Misses != int64(len(cacheDifferentialConfigs(t))) {
		t.Errorf("misses = %d, want one per configuration (%d)", st.Misses, len(cacheDifferentialConfigs(t)))
	}
	cache.Purge()
}

// TestFingerprintDistinguishes: near-identical Options must map to
// distinct fingerprints. Each case here is a pair that would collide
// under a naive concatenation encoding.
func TestFingerprintDistinguishes(t *testing.T) {
	csv := DefaultFormat()
	cases := []struct {
		name string
		a, b Options
	}{
		{"default-values-shift",
			Options{Format: csv, DefaultValues: map[int]string{0: "ab", 1: "c"}},
			Options{Format: csv, DefaultValues: map[int]string{0: "a", 1: "bc"}}},
		{"eq-vs-prefix",
			Options{Format: csv, Scan: ScanOptions{Where: []Predicate{Eq(0, "x")}}},
			Options{Format: csv, Scan: ScanOptions{Where: []Predicate{Prefix(0, "x")}}}},
		{"select-vs-scan-select",
			Options{Format: csv, SelectColumns: []int{0, 1}},
			Options{Format: csv, Scan: ScanOptions{Select: []int{0, 1}}}},
		{"pushdown-toggle",
			Options{Format: csv, Scan: ScanOptions{Where: []Predicate{Eq(0, "x")}}},
			Options{Format: csv, Scan: ScanOptions{Where: []Predicate{Eq(0, "x")}, NoPushdown: true}}},
		{"schema-nil-vs-empty-name",
			Options{Format: csv},
			Options{Format: csv, Schema: NewSchema(Field{Name: ""})}},
		{"header-toggle",
			Options{Format: csv},
			Options{Format: csv, HasHeader: true}},
		{"mode",
			Options{Format: csv, Mode: RecordTagged},
			Options{Format: csv, Mode: InlineTerminated}},
		{"validate-toggle",
			Options{Format: csv},
			Options{Format: csv, Validate: true}},
		{"predicate-column",
			Options{Format: csv, Scan: ScanOptions{Where: []Predicate{IsNull(0)}}},
			Options{Format: csv, Scan: ScanOptions{Where: []Predicate{IsNull(1)}}}},
		{"int-range-bounds",
			Options{Format: csv, Scan: ScanOptions{Where: []Predicate{IntRange(0, 0, 10)}}},
			Options{Format: csv, Scan: ScanOptions{Where: []Predicate{IntRange(0, 0, 11)}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if Fingerprint(tc.a) == Fingerprint(tc.b) {
				t.Errorf("fingerprints collide:\n a: %+v\n b: %+v", tc.a, tc.b)
			}
		})
	}
}

// TestFingerprintEquivalences: configurations that compile to the same
// plan must share a fingerprint — most importantly dialects compiled
// per request, which are distinct pointers with identical machines.
func TestFingerprintEquivalences(t *testing.T) {
	a, err := FormatByName("jsonl")
	if err != nil {
		t.Fatal(err)
	}
	b, err := FormatByName("jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("FormatByName returned a shared pointer; the equivalence below proves nothing")
	}
	if Fingerprint(Options{Format: a}) != Fingerprint(Options{Format: b}) {
		t.Error("per-request compilations of one dialect fingerprint differently")
	}
	if Fingerprint(Options{}) != Fingerprint(Options{Format: DefaultFormat()}) {
		t.Error("nil Format does not fingerprint as the default format")
	}
	if Fingerprint(Options{HasHeader: true}) != Fingerprint(Options{HasHeader: true}) {
		t.Error("fingerprint is not deterministic")
	}
}

// TestFingerprintCoversEveryField: every field of Options, ScanOptions,
// Schema, Field and the wrapped convert.Predicate must reach the key.
// The table perturbs one field at a time away from a base configuration
// and requires Fingerprint to change; the reflection check requires the
// table to name every field, so a field added without its Fingerprint
// line fails here instead of silently serving a stale plan.
func TestFingerprintCoversEveryField(t *testing.T) {
	tsv, err := FormatByName("tsv")
	if err != nil {
		t.Fatal(err)
	}
	base := func() Options {
		return Options{
			Schema: NewSchema(Field{Name: "a", Type: Int64}),
			Scan: ScanOptions{Where: []Predicate{{p: convert.Predicate{
				Column: 0, Op: convert.PredEq, Value: []byte("x")}}}},
		}
	}
	perturb := map[string]func(o *Options){
		"parparaw.Options.Format":             func(o *Options) { o.Format = tsv },
		"parparaw.Options.Schema":             func(o *Options) { o.Schema = nil },
		"parparaw.Options.HasHeader":          func(o *Options) { o.HasHeader = true },
		"parparaw.Options.Mode":               func(o *Options) { o.Mode = InlineTerminated },
		"parparaw.Options.ChunkSize":          func(o *Options) { o.ChunkSize = 64 },
		"parparaw.Options.Workers":            func(o *Options) { o.Workers = 3 },
		"parparaw.Options.VirtualWorkers":     func(o *Options) { o.VirtualWorkers = 5 },
		"parparaw.Options.ConvertWorkers":     func(o *Options) { o.ConvertWorkers = 2 },
		"parparaw.Options.InFlight":           func(o *Options) { o.InFlight = 3 },
		"parparaw.Options.SkipRows":           func(o *Options) { o.SkipRows = 1 },
		"parparaw.Options.SelectColumns":      func(o *Options) { o.SelectColumns = []int{0} },
		"parparaw.Options.SkipRecords":        func(o *Options) { o.SkipRecords = []int64{0} },
		"parparaw.Options.Scan":               func(o *Options) { o.Scan = ScanOptions{} },
		"parparaw.Options.ExpectedColumns":    func(o *Options) { o.ExpectedColumns = 2 },
		"parparaw.Options.RejectInconsistent": func(o *Options) { o.RejectInconsistent = true },
		"parparaw.Options.RejectMalformed":    func(o *Options) { o.RejectMalformed = true },
		"parparaw.Options.DefaultValues":      func(o *Options) { o.DefaultValues = map[int]string{0: "z"} },
		"parparaw.Options.Validate":           func(o *Options) { o.Validate = true },
		"parparaw.Options.Encoding":           func(o *Options) { o.Encoding = UTF8 },
		"parparaw.Options.DetectEncoding":     func(o *Options) { o.DetectEncoding = true },
		"parparaw.Options.SplitTables":        func(o *Options) { o.SplitTables = true },
		"parparaw.Options.NoSkipAhead":        func(o *Options) { o.NoSkipAhead = true },
		"parparaw.Options.NoSWARConvert":      func(o *Options) { o.NoSWARConvert = true },
		"parparaw.ScanOptions.Select":         func(o *Options) { o.Scan.Select = []int{0} },
		"parparaw.ScanOptions.Where":          func(o *Options) { o.Scan.Where = nil },
		"parparaw.ScanOptions.NoPushdown":     func(o *Options) { o.Scan.NoPushdown = true },
		"parparaw.Schema.Fields":              func(o *Options) { o.Schema.Fields = append(o.Schema.Fields, Field{Name: "b"}) },
		"parparaw.Field.Name":                 func(o *Options) { o.Schema.Fields[0].Name = "b" },
		"parparaw.Field.Type":                 func(o *Options) { o.Schema.Fields[0].Type = Float64 },
		"convert.Predicate.Column":            func(o *Options) { o.Scan.Where[0].p.Column = 1 },
		"convert.Predicate.Op":                func(o *Options) { o.Scan.Where[0].p.Op = convert.PredNe },
		"convert.Predicate.Value":             func(o *Options) { o.Scan.Where[0].p.Value = []byte("y") },
		"convert.Predicate.IntLo":             func(o *Options) { o.Scan.Where[0].p.IntLo = 1 },
		"convert.Predicate.IntHi":             func(o *Options) { o.Scan.Where[0].p.IntHi = 1 },
		"convert.Predicate.FloatLo":           func(o *Options) { o.Scan.Where[0].p.FloatLo = 1 },
		"convert.Predicate.FloatHi":           func(o *Options) { o.Scan.Where[0].p.FloatHi = 1 },
	}

	fields := map[string]bool{}
	for _, typ := range []reflect.Type{
		reflect.TypeOf(Options{}), reflect.TypeOf(ScanOptions{}), reflect.TypeOf(Schema{}),
		reflect.TypeOf(Field{}), reflect.TypeOf(convert.Predicate{}),
	} {
		for i := 0; i < typ.NumField(); i++ {
			name := typ.String() + "." + typ.Field(i).Name
			fields[name] = true
			if perturb[name] == nil {
				t.Errorf("%s has no perturbation here (and maybe no Fingerprint line)", name)
			}
		}
	}

	want := Fingerprint(base())
	for name, f := range perturb {
		if !fields[name] {
			t.Errorf("perturbation %s names no field", name)
			continue
		}
		o := base()
		f(&o)
		if Fingerprint(o) == want {
			t.Errorf("perturbing %s leaves the fingerprint unchanged", name)
		}
	}
}

// TestCacheCompilesOnce: N concurrent Gets for one new configuration
// compile exactly one engine — the plan cache's reason to exist, under
// the contention a daemon actually sees.
func TestCacheCompilesOnce(t *testing.T) {
	cache := NewEngineCache(0)
	opts := Options{Format: DefaultFormat(), HasHeader: true}
	const workers = 16
	engines := make([]*Engine, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := cache.Get(opts)
			if err != nil {
				t.Error(err)
				return
			}
			engines[i] = e
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if engines[i] != engines[0] {
			t.Fatal("concurrent Gets returned distinct engines")
		}
	}
	if st := cache.Stats(); st.Misses != 1 || st.Hits != workers-1 {
		t.Errorf("stats = %+v, want 1 miss and %d hits", st, workers-1)
	}
	cache.Purge()
}

// TestCacheEvictionDrainsArenas: the eviction contract — an engine
// dropped by the LRU bound Closes, and its arena pool drains to zero
// reserved bytes even when a run holds one of its arenas at eviction
// time (the arena is dropped on release instead of recycled).
func TestCacheEvictionDrainsArenas(t *testing.T) {
	base := testleak.Count()
	cache := NewEngineCache(1)
	var evicted []string
	cache.OnEvict(func(key string, e *Engine) { evicted = append(evicted, key) })

	optsA := Options{Format: DefaultFormat(), HasHeader: true}
	a, err := cache.Get(optsA)
	if err != nil {
		t.Fatal(err)
	}
	// Populate A's pool: a parse checks an arena out and recycles it.
	if _, err := a.ParseReader(strings.NewReader("h1,h2\n1,2\n")); err != nil {
		t.Fatal(err)
	}
	if a.idleArenaCount() == 0 || a.reservedBytes() == 0 {
		t.Fatalf("parse did not populate the pool: %d idle arenas, %d reserved bytes",
			a.idleArenaCount(), a.reservedBytes())
	}
	if cache.ReservedBytes() != a.reservedBytes() {
		t.Errorf("cache.ReservedBytes() = %d, want %d", cache.ReservedBytes(), a.reservedBytes())
	}

	// Simulate a run in flight across the eviction.
	held := a.checkout()

	// A second configuration evicts A from the 1-entry cache.
	if _, err := cache.Get(Options{Format: DefaultFormat()}); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 1 || cache.Contains(optsA) {
		t.Fatalf("A still cached after eviction (len %d)", cache.Len())
	}
	if len(evicted) != 1 || evicted[0] != Fingerprint(optsA) {
		t.Fatalf("OnEvict fired %d times with keys %v", len(evicted), evicted)
	}
	if st := cache.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}

	// Close drained the idle arenas immediately…
	if a.idleArenaCount() != 0 || a.reservedBytes() != 0 {
		t.Errorf("evicted engine still holds %d idle arenas, %d reserved bytes",
			a.idleArenaCount(), a.reservedBytes())
	}
	if a.arenasInUse() != 1 {
		t.Errorf("in-use count = %d, want the held arena", a.arenasInUse())
	}
	// …and the in-flight arena is dropped, not recycled, on release.
	a.release(held)
	if a.arenasInUse() != 0 || a.idleArenaCount() != 0 || a.reservedBytes() != 0 {
		t.Errorf("post-release balance: %d in use, %d idle, %d reserved; want all zero",
			a.arenasInUse(), a.idleArenaCount(), a.reservedBytes())
	}

	// A closed engine still parses (fresh arena per run, dropped after):
	// eviction must never break a request already holding the engine.
	res, err := a.ParseReader(strings.NewReader("h1,h2\n3,4\n"))
	if err != nil {
		t.Fatalf("parse on evicted engine: %v", err)
	}
	if res.Table.NumRows() != 1 {
		t.Errorf("rows = %d, want 1", res.Table.NumRows())
	}
	if a.idleArenaCount() != 0 || a.reservedBytes() != 0 {
		t.Errorf("closed engine recycled an arena: %d idle, %d reserved",
			a.idleArenaCount(), a.reservedBytes())
	}
	cache.Purge()
	testleak.After(t, base)
}

// TestCacheEvictionUnderPressure: hammer a small cache with more
// configurations than it holds; every evicted engine must end fully
// drained, and the cache must never exceed its bound.
func TestCacheEvictionUnderPressure(t *testing.T) {
	base := testleak.Count()
	const bound = 4
	cache := NewEngineCache(bound)
	var mu sync.Mutex
	var gone []*Engine
	cache.OnEvict(func(key string, e *Engine) {
		mu.Lock()
		gone = append(gone, e)
		mu.Unlock()
	})

	input := "a,b,c\n1,2,3\n4,5,6\n"
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for j := 0; j < 16; j++ {
				// SkipRows varies the fingerprint: 16 distinct plans per
				// worker cycling through a 4-entry cache.
				opts := Options{Format: DefaultFormat(), HasHeader: true, SkipRows: (worker*16 + j) % 8}
				e, err := cache.Get(opts)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := e.ParseReader(strings.NewReader(input)); err != nil {
					// An engine evicted and Closed mid-checkout still
					// parses; any error here is a real bug.
					t.Errorf("worker %d run %d: %v", worker, j, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	if n := cache.Len(); n > bound {
		t.Errorf("cache grew to %d entries, bound %d", n, bound)
	}
	mu.Lock()
	if len(gone) == 0 {
		mu.Unlock()
		t.Fatal("pressure produced no evictions")
	}
	for i, e := range gone {
		if e.arenasInUse() != 0 || e.idleArenaCount() != 0 || e.reservedBytes() != 0 {
			t.Errorf("evicted engine %d: %d in use, %d idle, %d reserved; want drained",
				i, e.arenasInUse(), e.idleArenaCount(), e.reservedBytes())
		}
	}
	if st := cache.Stats(); st.Evictions != int64(len(gone)) {
		t.Errorf("eviction counter %d, OnEvict saw %d", st.Evictions, len(gone))
	}
	mu.Unlock() // Purge fires OnEvict, which takes mu
	cache.Purge()
	testleak.After(t, base)
}

// TestCacheBound: inserting max+N distinct configurations holds the
// entry count at max, evicting in LRU order.
func TestCacheBound(t *testing.T) {
	cache := NewEngineCache(3)
	opts := func(skip int) Options {
		return Options{Format: DefaultFormat(), SkipRows: skip}
	}
	for i := 0; i < 6; i++ {
		if _, err := cache.Get(opts(i)); err != nil {
			t.Fatal(err)
		}
	}
	if cache.Len() != 3 {
		t.Fatalf("len = %d, want 3", cache.Len())
	}
	for i := 0; i < 3; i++ {
		if cache.Contains(opts(i)) {
			t.Errorf("oldest entry %d survived", i)
		}
	}
	for i := 3; i < 6; i++ {
		if !cache.Contains(opts(i)) {
			t.Errorf("recent entry %d evicted", i)
		}
	}
	// Touching the LRU entry protects it from the next insertion.
	if _, err := cache.Get(opts(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Get(opts(6)); err != nil {
		t.Fatal(err)
	}
	if !cache.Contains(opts(3)) {
		t.Error("recently touched entry evicted")
	}
	if cache.Contains(opts(4)) {
		t.Error("LRU entry survived insertion")
	}
	cache.Purge()
	if cache.Len() != 0 {
		t.Errorf("len after Purge = %d", cache.Len())
	}
}

// TestCacheRejectsBadOptions: a configuration NewEngine rejects is not
// cached, and the error reaches the caller.
func TestCacheRejectsBadOptions(t *testing.T) {
	cache := NewEngineCache(0)
	bad := Options{Format: DefaultFormat(), Scan: ScanOptions{Select: []int{0}}, SelectColumns: []int{1}}
	if _, err := NewEngine(bad); err == nil {
		t.Skip("conflicting selections no longer rejected; pick another invalid config")
	}
	if _, err := cache.Get(bad); err == nil {
		t.Fatal("cache accepted Options NewEngine rejects")
	}
	if cache.Len() != 0 {
		t.Errorf("failed compilation left %d cache entries", cache.Len())
	}
	if st := cache.Stats(); st.Misses != 0 && st.Hits != 0 {
		t.Logf("stats after failed Get: %+v", st)
	}
}

func ExampleEngineCache() {
	cache := NewEngineCache(8)
	defer cache.Purge()

	parse := func(input string) {
		eng, err := cache.Get(Options{HasHeader: true})
		if err != nil {
			panic(err)
		}
		res, err := eng.ParseReader(strings.NewReader(input))
		if err != nil {
			panic(err)
		}
		fmt.Println(res.Table.NumRows(), "rows")
	}
	parse("a,b\n1,2\n")
	parse("a,b\n3,4\n5,6\n") // same configuration: compiled once
	st := cache.Stats()
	fmt.Printf("%d hit, %d miss\n", st.Hits, st.Misses)
	// Output:
	// 1 rows
	// 2 rows
	// 1 hit, 1 miss
}
