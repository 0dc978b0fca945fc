package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json -compare reads: each
// end-to-end metric's direction and regression bound.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// minPairs is the fewest pairs a gain may rest on.
const minPairs = 10

// compareReports prints, for every workload and end-to-end metric, the
// median and quartiles of both sides' untraced runs and a verdict. It
// refuses reports from different hosts, and returns an error when any
// metric got worse.
func compareReports(w io.Writer, benchPath, beforePath, afterPath string) error {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	before, err := readReports(beforePath)
	if err != nil {
		return err
	}
	after, err := readReports(afterPath)
	if err != nil {
		return err
	}
	all := append(append([]report(nil), before...), after...)
	if len(all) == 0 {
		return fmt.Errorf("no reports")
	}
	for _, rep := range all {
		a, b := all[0].Host, rep.Host
		if a.CPU != b.CPU || a.NProc != b.NProc || a.GOMAXPROCS != b.GOMAXPROCS {
			return fmt.Errorf("refusing to compare runs from different hosts: %q nproc=%d GOMAXPROCS=%d vs %q nproc=%d GOMAXPROCS=%d",
				a.CPU, a.NProc, a.GOMAXPROCS, b.CPU, b.NProc, b.GOMAXPROCS)
		}
	}

	values := func(reps []report, wl, metric string) []float64 {
		var out []float64
		for _, rep := range reps {
			if m, ok := rep.Metrics[metric]; ok && rep.Workload == wl && !rep.Trace {
				out = append(out, m.Value)
			}
		}
		return out
	}
	var order []string
	seen := map[string]bool{}
	for _, rep := range all {
		if !seen[rep.Workload] {
			seen[rep.Workload] = true
			order = append(order, rep.Workload)
		}
	}
	fmt.Fprintf(w, "%-12s %-16s %-34s %-34s %8s %6s  %s\n", "workload", "metric", "before median [q1 q3] n", "after median [q1 q3] n", "change", "wins", "verdict")
	worse := 0
	for _, wl := range order {
		for _, m := range spec.EndToEnd {
			a, b := values(before, wl, m.Name), values(after, wl, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v, wins, pairs := verdict(a, b, m.Better == "higher", m.Bound)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-12s %-16s %-34s %-34s %+7.1f%% %6s  %s\n", wl, m.Name, summary(a), summary(b),
				100*(median(b)/median(a)-1), fmt.Sprintf("%d/%d", wins, pairs), v)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", worse)
	}
	return nil
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g] n=%d", median(xs), q1, q3, len(xs))
}

// verdict judges after against before for one metric. A gain needs at
// least minPairs pairs (run i of each side), wins in nine of every ten,
// and a median shift larger than before's quartile distance. A loss is a
// median worse by more than bound, as a share of before's median. A
// side whose quartile distance exceeds bound leaves the metric
// unresolved, unless every run after beats every run before.
func verdict(before, after []float64, higherBetter bool, bound float64) (v string, wins, pairs int) {
	better := func(x, y float64) bool {
		if higherBetter {
			return x > y
		}
		return x < y
	}
	pairs = min(len(before), len(after))
	for i := 0; i < pairs; i++ {
		if better(after[i], before[i]) {
			wins++
		}
	}
	mb, ma := median(before), median(after)
	q1, q3 := quartiles(before)
	loss := (ma - mb) / mb
	if higherBetter {
		loss = -loss
	}
	allBetter := true
	for _, x := range after {
		for _, y := range before {
			allBetter = allBetter && better(x, y)
		}
	}
	spread := func(xs []float64) float64 {
		q1, q3 := quartiles(xs)
		return (q3 - q1) / math.Abs(median(xs))
	}
	switch {
	case pairs >= minPairs && wins*10 >= 9*pairs && math.Abs(ma-mb) > q3-q1:
		return "improved", wins, pairs
	case loss > bound:
		return "worse", wins, pairs
	case allBetter:
		return "unchanged", wins, pairs
	case spread(before) > bound || spread(after) > bound:
		return "unresolved", wins, pairs
	}
	return "unchanged", wins, pairs
}

// readReports reads a -o file.
func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var rep report
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rep)
	}
	return out, sc.Err()
}
