package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	parparaw "repro"
	"repro/internal/workload"
)

// smokeScale runs every workload's full code path on inputs small enough
// for the whole smoke test to take seconds.
var smokeScale = scale{
	bulk:          256 << 10,
	streamBlock:   256 << 10,
	partition:     64 << 10,
	body:          8 << 10,
	bodyPartition: 4 << 10,
	pool:          4,
	rate:          200,
	convertSample: 64 << 10,
	setups:        2,
}

var daemonBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bench-smoke")
	if err != nil {
		panic(err)
	}
	daemonBin = filepath.Join(dir, "parparawd")
	build := exec.Command("go", "build", "-o", daemonBin, "repro/cmd/parparawd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		panic("building parparawd: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchmarkJSON reads the repository's BENCHMARK.json.
func benchmarkJSON(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

func smokeRun(t *testing.T, wl int, trace bool) *report {
	t.Helper()
	r := &run{
		workload: workloads[wl].name, seed: 7, seconds: 300 * time.Millisecond, trace: trace,
		scale: smokeScale, daemon: daemonBin,
	}
	spans := ""
	if trace {
		spans = filepath.Join(t.TempDir(), "spans.json")
	}
	rep, err := execute(r, workloads[wl].run, spans)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d errors=%v", rep.Workload, trace, rep.Correct, rep.Attempted, rep.Failed, rep.Errors)
	}
	if trace {
		var list []span
		data, err := os.ReadFile(spans)
		if err == nil {
			err = json.Unmarshal(data, &list)
		}
		if err != nil || len(list) == 0 {
			t.Fatalf("%s: spans file: %v (%d spans)", rep.Workload, err, len(list))
		}
	}
	return rep
}

// TestWorkloadsEmitDeclaredMetrics runs every workload briefly, traced
// and untraced, and checks the result line against BENCHMARK.json: the
// untraced line carries exactly the end-to-end metrics and the traced
// one exactly the per-layer metrics, each with its declared unit. Both
// runs measure the same end-to-end metrics.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	e2e, layers := benchmarkJSON(t)
	for wl := range workloads {
		t.Run(workloads[wl].name, func(t *testing.T) {
			plain, traced := smokeRun(t, wl, false), smokeRun(t, wl, true)
			for _, c := range []struct {
				rep  *report
				want map[string]string
			}{{plain, e2e}, {traced, layers}} {
				got := resultOf(c.rep).Metrics
				if len(got) != len(c.want) {
					t.Errorf("trace=%v: %d metrics, BENCHMARK.json declares %d", c.rep.Trace, len(got), len(c.want))
				}
				for name, unit := range c.want {
					if m, ok := got[name]; !ok || m.Unit != unit {
						t.Errorf("trace=%v: metric %s = %+v, want unit %q", c.rep.Trace, name, m, unit)
					}
				}
			}
			for name := range e2e {
				_, inPlain := plain.Metrics[name]
				_, inTraced := traced.Metrics[name]
				if !inPlain || !inTraced {
					t.Errorf("end-to-end metric %s: untraced %v, traced %v", name, inPlain, inTraced)
				}
			}
			if workloads[wl].name == "bulk-taxi" {
				if cov := traced.Metrics["core.phase_coverage"].Value; cov < 0.7 || cov > 1.3 {
					t.Errorf("core.phase_coverage = %.3f, want within [0.7, 1.3]", cov)
				}
			}
		})
	}
}

// TestOraclesCatchCorruption feeds each output check a deliberately
// wrong answer.
func TestOraclesCatchCorruption(t *testing.T) {
	spec := workload.Taxi()
	schema := publicSchema(spec.Schema)
	input := spec.Generate(32<<10, 3)
	res, err := parparaw.Parse(input, parparaw.Options{Schema: schema})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkTables([]*parparaw.Table{res.Table}, schema, bytes.NewReader(input), ','); err != nil {
		t.Fatalf("clean output fails the oracle: %v", err)
	}

	// One fare digit changed in the oracle's copy: the table no longer
	// matches it, and a table parsed from it has another digest.
	corrupt := bytes.Clone(input)
	i := bytes.IndexByte(corrupt, '.') + 1
	corrupt[i] = '0' + (corrupt[i]-'0'+1)%10
	if err := checkTables([]*parparaw.Table{res.Table}, schema, bytes.NewReader(corrupt), ','); err == nil {
		t.Error("oracle accepted a table that differs from its input in one digit")
	}
	other, err := parparaw.Parse(corrupt, parparaw.Options{Schema: schema})
	if err != nil {
		t.Fatal(err)
	}
	if digest(res.Table) == digest(other.Table) {
		t.Error("digest did not change with one value")
	}
	// A dropped last row.
	short := input[:bytes.LastIndexByte(input[:len(input)-1], '\n')+1]
	if err := checkTables([]*parparaw.Table{res.Table}, schema, bytes.NewReader(short), ','); err == nil {
		t.Error("oracle accepted a table with an extra row")
	}

	// The serve-mix oracle: a row count off by one, and an output=csv
	// body with one byte changed.
	classes := serveClasses()
	oracle := newServeOracle(map[string][][]byte{"taxi": {input}, "tsv": {bytes.ReplaceAll(input, []byte{','}, []byte{'\t'})}})
	summaryReq := request{q: classes[0].query, pool: "taxi"}
	want, err := oracle.expect(summaryReq)
	if err != nil {
		t.Fatal(err)
	}
	good := response{status: 200, rows: want.rows, columns: want.columns}
	if err := oracle.verify(summaryReq, good); err != nil {
		t.Fatalf("correct summary rejected: %v", err)
	}
	bad := good
	bad.rows++
	if oracle.verify(summaryReq, bad) == nil {
		t.Error("serve oracle accepted a wrong row count")
	}
	csvReq := request{q: classes[4].query, pool: "tsv"}
	want, err = oracle.expect(csvReq)
	if err != nil {
		t.Fatal(err)
	}
	good = response{status: 200, rows: want.rows, csvSum: want.csvSum}
	if err := oracle.verify(csvReq, good); err != nil {
		t.Fatalf("correct csv output rejected: %v", err)
	}
	bad = good
	bad.csvSum[0] ^= 1
	if oracle.verify(csvReq, bad) == nil {
		t.Error("serve oracle accepted a different output=csv body")
	}
}

// TestCompareRefusesOtherHosts checks -compare's host guard and its
// verdicts on synthetic reports.
func TestCompareRefusesOtherHosts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, cpu string, mbps ...float64) string {
		var buf bytes.Buffer
		for _, v := range mbps {
			line, _ := json.Marshal(report{Workload: "bulk-taxi", Host: host{CPU: cpu, NProc: 2, GOMAXPROCS: 2},
				Metrics: map[string]metric{"mb_per_s": {Value: v, Unit: "MB/s"}}})
			buf.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.jsonl", "cpu A", 50, 51, 49, 50)
	if err := compareReports(&bytes.Buffer{}, "../../BENCHMARK.json", a, write("b.jsonl", "cpu B", 50, 51, 49, 50)); err == nil {
		t.Error("compared reports from different hosts")
	}
	if err := compareReports(&bytes.Buffer{}, "../../BENCHMARK.json", a, write("c.jsonl", "cpu A", 50, 50, 50, 50)); err != nil {
		t.Errorf("equal runs: %v", err)
	}
	if err := compareReports(&bytes.Buffer{}, "../../BENCHMARK.json", a, write("d.jsonl", "cpu A", 30, 31, 29, 30)); err == nil {
		t.Error("a 40% throughput drop was not reported worse")
	}

	ten := func(v float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = v + float64(i%3)
		}
		return out
	}
	for _, c := range []struct {
		before, after []float64
		want          string
	}{
		{ten(100), ten(120), "improved"},
		{ten(100), ten(80), "worse"},
		{ten(100), ten(99), "unchanged"},
		{[]float64{50, 100, 150, 100}, []float64{100, 100, 100, 100}, "unresolved"},
	} {
		if v, _, _ := verdict(c.before, c.after, true, 0.1); v != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.before, c.after, v, c.want)
		}
	}
}
