// Command bench is the repository's end-to-end benchmark: four fixed
// workloads over the public API and the parparawd daemon, each reporting
// named metrics with units and checking every output it measures.
//
// Usage (from the repository root; run.sh builds the bench and the
// daemon, then runs the bench):
//
//	bash cmd/bench/run.sh -workload all|bulk-taxi|bulk-yelp|stream-taxi|serve-mix
//	                      -seed N [-seconds 25] [-trace 0|1] [-spans file]
//	                      [-o results.jsonl]
//	bash cmd/bench/run.sh -compare before.jsonl after.jsonl
//
// One workload runs in this process; -workload all runs each workload in
// a child process of its own, so peak RSS and GC state stay separate.
// Inputs come from -seed alone. -trace 1 records spans and reports the
// per-layer metrics instead of the end-to-end ones. The last line of
// standard output is the result as one JSON object: {"correct",
// "attempted", "failed", "metrics"}. -o appends the full report (host,
// spreads, errors) as a JSON line for -compare. The exit status is
// non-zero when any output check fails. README.md describes the
// workloads and defines every metric.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/workload"
)

// scale fixes the input sizes of a run. The benchmark runs at fullScale;
// the smoke test runs the same code at a small one.
type scale struct {
	bulk          int     // bytes parsed per bulk operation
	streamBlock   int     // bytes of the block a stream operation reads twice
	partition     int     // streaming partition size
	body          int     // mean serve-mix request body
	bodyPartition int     // parparawd's streaming partition size
	pool          int     // bodies per serve-mix pool
	rate          float64 // serve-mix requests per second
	convertSample int     // bytes of taxi whose fields the convert probe parses
	setups        int     // cold starts behind setup_s
}

var fullScale = scale{
	bulk:          4 << 20,
	streamBlock:   8 << 20,
	partition:     2 << 20,
	body:          64 << 10,
	bodyPartition: 32 << 10,
	pool:          16,
	rate:          200,
	convertSample: 1 << 20,
	setups:        5,
}

// workloads are the benchmark's fixed workloads, in run order.
var workloads = []struct {
	name string
	run  func(*run) error
}{
	{"bulk-taxi", func(r *run) error { return runBulk(r, workload.Taxi()) }},
	{"bulk-yelp", func(r *run) error { return runBulk(r, workload.Yelp()) }},
	{"stream-taxi", func(r *run) error { return runStream(r, workload.Taxi()) }},
	{"serve-mix", runServe},
}

// host identifies the machine and build a report was measured on.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func thisHost() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				h.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				h.Commit += "+modified"
			}
		}
	}
	return h
}

// report is the full record of one workload run, the line -o appends.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Host      host              `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Digest    string            `json:"digest,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Spread    map[string]spread `json:"spread,omitempty"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: all, or one of "+workloadNames())
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 25, "seconds each run measures")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	spans := fs.String("spans", "", "file the spans of a -trace 1 run are written to (default: spans-<workload>.json beside the executable)")
	out := fs.String("o", "", "append each run's full report to this JSON-lines file")
	daemon := fs.String("parparawd", "", "parparawd binary serve-mix drives")
	compare := fs.Bool("compare", false, "compare two -o files: bench -compare before.jsonl after.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two report files")
			return 2
		}
		if err := compareReports(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fs.Usage()
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	if *name == "all" {
		return runChildren(args, stdout, stderr)
	}
	wl := -1
	for i, w := range workloads {
		if w.name == *name {
			wl = i
		}
	}
	if wl < 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have all, %s)\n", *name, workloadNames())
		return 2
	}
	r := &run{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		scale:    fullScale,
		daemon:   *daemon,
	}
	if r.trace && *spans == "" {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		*spans = filepath.Join(filepath.Dir(exe), "spans-"+*name+".json")
	}
	rep, err := execute(r, workloads[wl].run, *spans)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	if *out != "" {
		if err := appendReport(*out, rep); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	printReport(stdout, rep)
	for _, e := range rep.Errors {
		fmt.Fprintf(stderr, "bench: %s: %s\n", *name, e)
	}
	line, _ := json.Marshal(resultOf(rep))
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// execute runs one workload and completes its report: with tracing, it
// checks that the spans nest and writes them to spansPath.
func execute(r *run, body func(*run) error, spansPath string) (*report, error) {
	r.rep = &report{
		Workload: r.workload, Seed: r.seed, Seconds: r.seconds.Seconds(), Trace: r.trace, Host: thisHost(),
		Metrics: map[string]metric{}, Spread: map[string]spread{},
	}
	if r.trace {
		r.tracer = newTracer()
	}
	if err := body(r); err != nil {
		return nil, err
	}
	want := endToEnd
	if r.trace {
		r.check(r.tracer.check())
		if spansPath != "" {
			if err := r.tracer.write(spansPath); err != nil {
				return nil, err
			}
		}
		want = perLayer
	}
	for _, d := range want {
		if _, ok := r.rep.Metrics[d.name]; !ok {
			r.fail(fmt.Errorf("metric %s was not measured", d.name))
		}
	}
	r.rep.Correct = r.rep.Failed == 0
	return r.rep, nil
}

// resultOf is the result line of a report: the end-to-end metrics, or
// with tracing the per-layer ones.
func resultOf(rep *report) result {
	want := endToEnd
	if rep.Trace {
		want = perLayer
	}
	res := result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metric{}}
	for _, d := range want {
		if m, ok := rep.Metrics[d.name]; ok {
			res.Metrics[d.name] = m
		}
	}
	return res
}

// printReport writes the human-readable table of a report.
func printReport(w io.Writer, rep *report) {
	h := rep.Host
	fmt.Fprintf(w, "# %s seed=%d seconds=%g trace=%v | %s, nproc=%d, GOMAXPROCS=%d, %s, commit %s\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Trace, h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.Commit)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		line := fmt.Sprintf("%-12s %-32s %12.4f %-6s", rep.Workload, n, m.Value, m.Unit)
		if s, ok := rep.Spread[n]; ok && s.N > 0 {
			if s.Q1 != 0 || s.Q3 != 0 {
				line += fmt.Sprintf("  q1 %.4f  q3 %.4f", s.Q1, s.Q3)
			}
			line += fmt.Sprintf("  n %d", s.N)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "# %s correct=%v attempted=%d failed=%d digest=%s\n", rep.Workload, rep.Correct, rep.Attempted, rep.Failed, rep.Digest)
}

func appendReport(path string, rep *report) error {
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runChildren runs every workload in a child process of this
// executable and prints one combined result line, each metric keyed
// "<workload>/<name>".
func runChildren(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	combined := result{Correct: true, Metrics: map[string]metric{}}
	status := 0
	for _, w := range workloads {
		var buf bytes.Buffer
		// The appended -workload overrides the "all" in args: the last
		// occurrence of a flag wins.
		cmd := exec.Command(exe, append(args, "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = &buf, stderr
		err := cmd.Run()
		lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
		for _, l := range lines[:len(lines)-1] {
			fmt.Fprintln(stdout, l)
		}
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
			fmt.Fprintf(stderr, "bench: %s: no result (%v)\n", w.name, errors.Join(err, jerr))
			return 1
		}
		if err != nil {
			status = 1
		}
		combined.Correct = combined.Correct && res.Correct
		combined.Attempted += res.Attempted
		combined.Failed += res.Failed
		for n, m := range res.Metrics {
			combined.Metrics[w.name+"/"+n] = m
		}
	}
	line, _ := json.Marshal(combined)
	fmt.Fprintln(stdout, string(line))
	return status
}
