package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// binDir holds the icewafl and icewafld binaries built for the tests.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	for _, name := range []string{"icewafl", "icewafld"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(dir, name), "icewafl/cmd/"+name).CombinedOutput()
		if err != nil {
			fmt.Fprintf(os.Stderr, "build %s: %v\n%s", name, err, out)
			os.RemoveAll(dir)
			os.Exit(1)
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// tinyOptions shrinks a run to a smoke test.
func tinyOptions(t *testing.T, workload string, trace bool) options {
	return options{
		workload: workload,
		seed:     7,
		seconds:  time.Second,
		trace:    trace,
		bin:      binDir,
		work:     t.TempDir(),
		sizes: sizes{
			cliRows:     2000,
			sessionRows: 1000,
			pacedRate:   500,
			setupProbes: 2,
			replicaRows: 1000,
			probeRows:   500,
			probePaced:  time.Second,
		},
	}
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// declares.
func benchmarkMetrics(t *testing.T) (e2e, layers map[string]string) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

// result is the parsed last line of a run's output.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func lastLine(t *testing.T, rep *report, trace bool) (string, result) {
	t.Helper()
	var buf bytes.Buffer
	if err := printResult(&buf, rep, trace); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, buf.String())
	}
	return buf.String(), res
}

// TestSmoke runs every workload at a tiny size, traced, and checks that
// the result lines carry exactly the metrics BENCHMARK.json names, with
// their units, and that every output was correct.
func TestSmoke(t *testing.T) {
	e2e, layers := benchmarkMetrics(t)
	for _, wl := range []string{wlCLI, wlSessions, wlPaced} {
		t.Run(wl, func(t *testing.T) {
			rep, err := run(tinyOptions(t, wl, true))
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				trace bool
				want  map[string]string
			}{{false, e2e}, {true, layers}} {
				table, res := lastLine(t, rep, c.trace)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace=%v: correct=%v failed=%d attempted=%d\n%s", c.trace, res.Correct, res.Failed, res.Attempted, table)
				}
				if len(res.Metrics) != len(c.want) {
					t.Errorf("trace=%v: %d metrics, BENCHMARK.json names %d", c.trace, len(res.Metrics), len(c.want))
				}
				for name, unit := range c.want {
					m, ok := res.Metrics[name]
					if !ok {
						t.Errorf("trace=%v: metric %s missing", c.trace, name)
						continue
					}
					if m.Unit != unit {
						t.Errorf("trace=%v: metric %s has unit %q, want %q", c.trace, name, m.Unit, unit)
					}
					if !strings.Contains(table, name) {
						t.Errorf("trace=%v: table does not print %s", c.trace, name)
					}
				}
			}
			table, _ := lastLine(t, rep, false)
			for _, name := range []string{"deliver_p50_ms", "deliver_p99_ms", "failed_ratio"} {
				if !strings.Contains(table, name) {
					t.Errorf("table does not print %s", name)
				}
			}
		})
	}
}

// TestCorruptReferenceFails flips one reference row: the run must count
// failures and report itself incorrect.
func TestCorruptReferenceFails(t *testing.T) {
	for _, wl := range []string{wlCLI, wlSessions, wlPaced} {
		t.Run(wl, func(t *testing.T) {
			opts := tinyOptions(t, wl, false)
			opts.corruptRef = true
			rep, err := run(opts)
			if err != nil {
				t.Fatal(err)
			}
			table, res := lastLine(t, rep, false)
			if res.Correct || res.Failed == 0 {
				t.Fatalf("corrupted reference passed: correct=%v failed=%d\n%s", res.Correct, res.Failed, table)
			}
			if !strings.Contains(table, "failure:") {
				t.Errorf("table names no failure:\n%s", table)
			}
		})
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.25, 2}, {1, 5}, {0.99, 4.96}} {
		if got := quantile(append([]float64(nil), xs...), c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v", got)
	}
}
