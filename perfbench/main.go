// Command perfbench is the repository benchmark. It runs the shipped
// binaries (cmd/icewafl, cmd/icewafld) as child processes — the system
// under test (SUT) — drives them from this one load process, checks every
// output against the Algorithm-1 reference, and reports end-to-end
// metrics measured at the sink. With -trace 1 it additionally replays the
// workload's inputs in-process through each module's public functions
// under spans and reports per-layer metrics instead.
//
// It is normally started through run.sh, which builds the binaries first:
//
//	bash perfbench/run.sh --workload serve-paced --seed 3 --seconds 10 --trace 0
//
// Every metric is printed as a table (name, value, unit, samples); the
// last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md explains why each
// workload exists and which end-to-end metric each per-layer metric
// should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"sync"
	"time"
)

// Workload names.
const (
	wlCLI      = "cli-columnar"
	wlSessions = "serve-sessions"
	wlPaced    = "serve-paced"
)

// sizes fixes how much work one run does. The defaults are the
// benchmark's; tests shrink them.
type sizes struct {
	cliRows     int           // rows per icewafl invocation
	sessionRows int           // rows per session
	pacedRate   int           // rows per second offered to serve-paced
	setupProbes int           // extra SUT start-ups timed for setup_s, half before and half after the measured work
	replicaRows int           // input prefix the traced replica drives
	probeRows   int           // rows per session of the serve-sessions probe in traced runs
	probePaced  time.Duration // length of the serve-paced probe in traced runs
}

func defaultSizes() sizes {
	return sizes{
		cliRows:     100000,
		sessionRows: 40000,
		pacedRate:   2000,
		setupProbes: 40,
		replicaRows: 20000,
		probeRows:   4000,
		probePaced:  1500 * time.Millisecond,
	}
}

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	bin      string // directory holding the icewafl and icewafld binaries
	work     string // scratch directory for this invocation
	sizes    sizes
	// corruptRef flips one reference row before measuring; the run must
	// then report failures (the benchmark's negative test).
	corruptRef bool
}

// metric is one reported number.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

// report collects a run's numbers and its correctness tally.
type report struct {
	mu        sync.Mutex // ops and problems arrive from subscriber goroutines
	e2e       []metric   // end-to-end metrics (the result line without -trace)
	layers    []metric   // per-layer metrics (the result line with -trace)
	info      []metric   // printed in the table only
	attempted int
	failed    int
	problems  []string
}

func (r *report) addE2E(name string, v float64, unit string, n int) {
	r.e2e = append(r.e2e, metric{name, v, unit, n})
}

func (r *report) addLayer(name string, v float64, unit string, n int) {
	r.layers = append(r.layers, metric{name, v, unit, n})
}

func (r *report) addInfo(name string, v float64, unit string, n int) {
	r.info = append(r.info, metric{name, v, unit, n})
}

// ops records attempted operations and how many of them failed.
func (r *report) ops(attempted, failed int, why string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += attempted
	r.failed += failed
	if failed > 0 && len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf("%d of %d failed: %s", failed, attempted, why))
	}
}

// correct reports whether every attempted operation succeeded.
func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

func (r *report) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	workload := flag.String("workload", "", "workload: "+wlCLI+", "+wlSessions+" or "+wlPaced)
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	bin := flag.String("bin", "", "directory holding the built icewafl and icewafld binaries")
	work := flag.String("work", "", "scratch directory (a fresh sub-directory is used and removed)")
	flag.Parse()
	if *bin == "" || *work == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	switch *workload {
	case wlCLI, wlSessions, wlPaced:
	default:
		log.Fatalf("unknown workload %q", *workload)
	}
	// The load process may use every CPU but no more; the SUT shares them.
	runtime.GOMAXPROCS(runtime.NumCPU())

	// A run must end within 180s; children die with the process
	// (childAttr) if this fires.
	time.AfterFunc(170*time.Second, func() {
		log.Print("run exceeded 170s; aborting")
		os.Exit(1)
	})

	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		log.Fatal(err)
	}
	opts := options{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		bin:      *bin,
		work:     dir,
		sizes:    defaultSizes(),
	}
	rep, err := run(opts)
	os.RemoveAll(dir)
	if err != nil {
		log.Fatal(err)
	}
	if err := printResult(os.Stdout, rep, opts.trace); err != nil {
		log.Fatal(err)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}

// run executes one invocation: the workload end to end and, with trace,
// the cross-workload probes and the traced replica.
func run(opts options) (*report, error) {
	j, err := loadJob()
	if err != nil {
		return nil, err
	}
	rep := &report{}
	var e2e *workloadResult
	switch opts.workload {
	case wlCLI:
		e2e, err = runCLIWorkload(opts, j, rep)
	case wlSessions:
		e2e, err = runSessionsWorkload(opts, j, rep, opts.sizes.sessionRows, opts.seconds)
	case wlPaced:
		e2e, err = runPacedWorkload(opts, j, rep, opts.sizes.pacedRate, opts.seconds)
	}
	if err != nil {
		return nil, err
	}
	if opts.trace {
		if err := traceLayers(opts, j, rep, e2e); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// printResult prints the metric table and, as the last line, the result
// object the benchmark contract asks for.
func printResult(w io.Writer, rep *report, trace bool) error {
	fmt.Fprintf(w, "%-34s %16s  %-8s %s\n", "metric", "value", "unit", "samples")
	for _, group := range [][]metric{rep.e2e, rep.info, rep.layers} {
		for _, m := range group {
			fmt.Fprintf(w, "%-34s %16.6g  %-8s %d\n", m.name, m.value, m.unit, m.samples)
		}
	}
	ratio := 0.0
	if rep.attempted > 0 {
		ratio = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(w, "%-34s %16.6g  %-8s %d\n", "failed_ratio", ratio, "ratio", rep.attempted)
	for _, p := range rep.problems {
		fmt.Fprintf(w, "failure: %s\n", p)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	chosen := rep.e2e
	if trace {
		chosen = rep.layers
	}
	metrics := make(map[string]value, len(chosen))
	for _, m := range chosen {
		metrics[m.name] = value{m.value, m.unit}
	}
	attempted := rep.attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct(), attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
