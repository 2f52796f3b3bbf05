package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"
)

// workloadResult carries what the traced run needs from the end-to-end
// run of a workload.
type workloadResult struct {
	input                        []byte // one job's generated input CSV
	reorder                      int
	columnar                     bool
	checkpointed                 bool
	daemon                       bool // a daemon served the run and scrape holds its /metrics
	sessions                     *sessionsObs
	paced                        *pacedObs
	scrapeDeliver, scrapeNetSend stageMean
}

// stageMean is a scraped stage histogram's mean.
type stageMean struct {
	meanUs float64
	count  int
}

// writeJobFiles writes the schema and configuration the SUT reads.
func writeJobFiles(dir string, j *job) (schemaPath, configPath string, err error) {
	schemaPath = filepath.Join(dir, "schema.json")
	configPath = filepath.Join(dir, "pollution.json")
	if err := os.WriteFile(schemaPath, j.schemaJSON, 0o644); err != nil {
		return "", "", err
	}
	if err := os.WriteFile(configPath, j.configJSON, 0o644); err != nil {
		return "", "", err
	}
	return schemaPath, configPath, nil
}

// headerOnly returns the header line of a CSV input.
func headerOnly(input []byte) []byte {
	if i := bytes.IndexByte(input, '\n'); i >= 0 {
		return input[:i+1]
	}
	return input
}

// runCLIWorkload is cli-columnar: icewafl -stream -columnar turns the
// seeded CSV into a dirty CSV plus a pollution log, invocation after
// invocation until the measured time is used up. Every invocation's
// files are compared byte for byte with the Process.Run reference.
func runCLIWorkload(opts options, j *job, rep *report) (*workloadResult, error) {
	input, err := j.generateCSV(opts.seed, opts.sizes.cliRows)
	if err != nil {
		return nil, err
	}
	ref, err := j.cliReference(input)
	if err != nil {
		return nil, err
	}
	if opts.corruptRef {
		ref.dirty = corruptLastRow(ref.dirty)
	}
	schemaPath, configPath, err := writeJobFiles(opts.work, j)
	if err != nil {
		return nil, err
	}
	inPath := filepath.Join(opts.work, "in.csv")
	headerPath := filepath.Join(opts.work, "header.csv")
	if err := os.WriteFile(inPath, input, 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(headerPath, headerOnly(input), 0o644); err != nil {
		return nil, err
	}
	dirtyPath := filepath.Join(opts.work, "dirty.csv")
	logPath := filepath.Join(opts.work, "log.jsonl")
	args := func(in string) []string {
		return []string{"-schema", schemaPath, "-config", configPath, "-in", in,
			"-out", dirtyPath, "-log", logPath, "-stream", "-columnar"}
	}

	// setup_s: the same command on a header-only copy of the input, half
	// of the probes before the measured invocations and half after.
	var setup []float64
	probeSetup := func(n int) error {
		debug.FreeOSMemory() // as in probeDaemonSetup
		for i := 0; i < n; i++ {
			wall, _, err := runCLI(opts.bin, args(headerPath)...)
			if err != nil {
				return err
			}
			setup = append(setup, wall.Seconds())
		}
		return nil
	}
	half := opts.sizes.setupProbes / 2
	if err := probeSetup(half); err != nil {
		return nil, err
	}

	check := func() {
		dirty, err := os.ReadFile(dirtyPath)
		if err != nil {
			rep.ops(ref.rows+1, ref.rows+1, err.Error())
			return
		}
		logData, err := os.ReadFile(logPath)
		bad := differingLines(ref.dirty, dirty)
		if bad > ref.rows {
			bad = ref.rows
		}
		if err != nil || !bytes.Equal(logData, ref.log) {
			bad++
		}
		rep.ops(ref.rows+1, bad, "cli output differs from the Process.Run reference")
	}

	// One untimed invocation warms the page cache and the binary.
	if _, _, err := runCLI(opts.bin, args(inPath)...); err != nil {
		return nil, err
	}
	check()

	var walls, rates, cpus, rss []float64
	deadline := time.Now().Add(opts.seconds)
	for len(walls) < 3 || time.Now().Before(deadline) {
		wall, u, err := runCLI(opts.bin, args(inPath)...)
		if err != nil {
			return nil, err
		}
		check()
		rss = append(rss, float64(u.maxRSSKB)/1024)
		walls = append(walls, ms(wall))
		rates = append(rates, float64(opts.sizes.cliRows)/wall.Seconds())
		cpus = append(cpus, ms(u.cpu)/float64(opts.sizes.cliRows)*1000)
	}
	if err := probeSetup(opts.sizes.setupProbes - half); err != nil {
		return nil, err
	}
	n := len(walls)
	rep.addE2E("setup_s", median(setup), "s", len(setup))
	rep.addE2E("tuples_per_s", median(rates), "1/s", n)
	rep.addInfo("deliver_p50_ms", median(walls), "ms", n)
	rep.addInfo("deliver_p99_ms", quantile(walls, 0.99), "ms", n)
	rep.addE2E("cpu_ms_per_ktuple", median(cpus), "ms", n)
	rep.addE2E("peak_rss_mb", median(rss), "MB", n)
	return &workloadResult{input: input, reorder: servedReorder, columnar: true}, nil
}

// differingLines counts the lines of got that differ from want, by
// position, plus missing and surplus lines.
func differingLines(want, got []byte) int {
	if bytes.Equal(want, got) {
		return 0
	}
	wl := bytes.Split(want, []byte{'\n'})
	gl := bytes.Split(got, []byte{'\n'})
	bad := 0
	for i := 0; i < len(wl) || i < len(gl); i++ {
		if i >= len(wl) || i >= len(gl) || !bytes.Equal(wl[i], gl[i]) {
			bad++
		}
	}
	return bad
}

// corruptLastRow returns a copy of a CSV whose last data row differs in
// its final byte, for the benchmark's negative test.
func corruptLastRow(csv []byte) []byte {
	out := append([]byte(nil), csv...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != '\n' {
			out[i] ^= 1
			return out
		}
	}
	panic(fmt.Sprintf("corruptLastRow: empty reference of %d bytes", len(csv)))
}
