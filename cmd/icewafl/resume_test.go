// Checkpoint-resume tests of the CLI: a run interrupted after a
// checkpoint must resume to the exact bytes of an uninterrupted run, and
// a resume whose output file is shorter than the checkpointed offset
// must fail loudly instead of padding the file.
package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// interruptedRun leaves dir with the state of a checkpointed run that
// was killed after its last checkpoint: a checkpoint covering the first
// half of the examples/cli input, and output and log files carrying
// rows written after it. It returns the CLI arguments that resume it
// over the full input, and the paths of the full-input reference
// output and log.
func interruptedRun(t *testing.T, bin, dir string) (resume []string, wantOut, wantLog string) {
	t.Helper()
	ex := filepath.Join("..", "..", "examples", "cli")
	clean, err := os.ReadFile(filepath.Join(ex, "clean.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(clean), "\n")
	prefix := filepath.Join(dir, "prefix.csv")
	if err := os.WriteFile(prefix, []byte(strings.Join(lines[:501], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	common := []string{
		"-schema", filepath.Join(ex, "schema.json"),
		"-config", filepath.Join(ex, "pollution.json"),
		"-stream", "-reorder", "1",
	}
	wantOut, wantLog = filepath.Join(dir, "want.csv"), filepath.Join(dir, "want.jsonl")
	runCLI(t, bin, append(common, "-in", filepath.Join(ex, "clean.csv"), "-out", wantOut, "-log", wantLog,
		"-checkpoint", filepath.Join(dir, "want.ckpt"))...)

	out, logOut, ckpt := filepath.Join(dir, "out.csv"), filepath.Join(dir, "out.jsonl"), filepath.Join(dir, "out.ckpt")
	run := append(common, "-out", out, "-log", logOut, "-checkpoint", ckpt)
	runCLI(t, bin, append(run, "-in", prefix, "-checkpoint-interval", "100")...)
	appendFile(t, out, "2016-02-26T00:00:00Z,written,after,the,last,checkpoint\n")
	appendFile(t, logOut, `{"tuple_id":0,"note":"written after the last checkpoint"}`+"\n")
	return append(run, "-in", filepath.Join(ex, "clean.csv"), "-resume"), wantOut, wantLog
}

func appendFile(t *testing.T, path, data string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func sameFile(t *testing.T, got, want string) {
	t.Helper()
	g, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Errorf("%s (%d bytes) differs from uninterrupted %s (%d bytes)", got, len(g), want, len(w))
	}
}

// TestCLIResume resumes an interrupted run and expects the output and
// log of an uninterrupted one.
func TestCLIResume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	resume, wantOut, wantLog := interruptedRun(t, bin, dir)
	runCLI(t, bin, resume...)
	sameFile(t, filepath.Join(dir, "out.csv"), wantOut)
	sameFile(t, filepath.Join(dir, "out.jsonl"), wantLog)
}

// TestCLIResumeRefusesShortOutput truncates the output below its
// checkpointed offset, as a power loss before the data reached the disk
// would, and expects the resume to fail naming the file, its size and
// the offset — leaving the file as it found it.
func TestCLIResumeRefusesShortOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	resume, _, _ := interruptedRun(t, bin, dir)
	out := filepath.Join(dir, "out.csv")
	if err := os.Truncate(out, 1000); err != nil {
		t.Fatal(err)
	}

	msg, err := exec.Command(bin, resume...).CombinedOutput()
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("resume over a truncated output: want a non-zero exit, got err=%v\n%s", err, msg)
	}
	want := fmt.Sprintf("cannot resume: %s is 1000 bytes, shorter than its checkpointed offset ", out)
	if !strings.Contains(string(msg), want) {
		t.Errorf("diagnostic missing %q:\n%s", want, msg)
	}
	fi, err := os.Stat(out)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 1000 {
		t.Errorf("resume changed the truncated output to %d bytes", fi.Size())
	}
}
