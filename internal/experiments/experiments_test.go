package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

// quickCfg returns a configuration small enough for CI.
func quickCfg(buf *bytes.Buffer) Config {
	return Config{Out: buf, Size: 1 << 20, Quick: true, VirtualWorkers: 512}
}

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test skipped in -short mode")
	}
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Run(e.Name, quickCfg(&buf)); err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.Name)
			}
		})
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := Run("nope", Config{}); err == nil {
		t.Fatal("want error for unknown experiment")
	}
}

func TestTable1MatchesPaperLayout(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("table1", quickCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Six states and the four symbol-group rows of Table 1.
	for _, want := range []string{"EOR", "ENC", "FLD", "EOF", "ESC", "INV", `'\n'`, `'"'`, `','`, "*"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q", want)
		}
	}
}

func TestTable2MatchesPaperExample(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("table2", quickCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "matched group index = 2") {
		t.Errorf("table2: ',' must match group 2 as in the paper:\n%s", buf.String())
	}
}

func TestFig8MatchesPaperGeometry(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig8", quickCfg(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"avail. bits per frag a 3",
		"bits per fragment k    2",
		"fragments              3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fig8 output missing %q:\n%s", want, out)
		}
	}
}

func TestModelledStreamCoversInput(t *testing.T) {
	cfg := Config{Size: 1 << 18}.withDefaults()
	spec := workload.Yelp()
	input := spec.Generate(cfg.Size, cfg.Seed)
	partSize := (len(input) + 3) / 4
	parts, deviceBytes, err := cfg.modelledStream(input, partSize, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) < 4 {
		t.Fatalf("partitions = %d, want >= 4", len(parts))
	}
	if deviceBytes <= 0 {
		t.Errorf("device bytes = %d, want > 0", deviceBytes)
	}
	for i, p := range parts {
		if p.Parse <= 0 || p.TransferIn <= 0 {
			t.Errorf("partition %d has empty stages: %+v", i, p)
		}
	}
}

func TestRateFormatting(t *testing.T) {
	if got := rate(2e9, time.Second); got != "2.00 GB/s" {
		t.Errorf("rate = %q", got)
	}
	if got := rate(5e6, time.Second); got != "5.00 MB/s" {
		t.Errorf("rate = %q", got)
	}
	if got := rate(100, 0); got != "inf" {
		t.Errorf("rate = %q", got)
	}
}
