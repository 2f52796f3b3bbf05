package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"strconv"
	"time"

	"icewafl/internal/config"
	"icewafl/internal/core"
	"icewafl/internal/csvio"
	"icewafl/internal/dataset"
	"icewafl/internal/schemafile"
	"icewafl/internal/stream"
)

// pollutionJSON is the one pollution configuration every workload runs:
// gaussian noise, missing values, time-of-day scaling, category errors
// and delayed tuples over the air-quality schema. No polluter targets
// the No column, so served rows can be matched to their input row by it.
//
//go:embed job/pollution.json
var pollutionJSON []byte

// servedReorder is the reorder window of the daemons' default serve
// settings (config.ServeSpec.Normalize), which serve-sessions uses.
const servedReorder = 64

// job is the shared job: the 18-attribute air-quality schema plus the
// pollution configuration.
type job struct {
	schema     *stream.Schema
	schemaJSON []byte
	configJSON []byte
}

func loadJob() (*job, error) {
	schema := dataset.AirQualitySchema()
	var buf bytes.Buffer
	if err := schemafile.Write(&buf, schema); err != nil {
		return nil, err
	}
	j := &job{schema: schema, schemaJSON: buf.Bytes(), configJSON: pollutionJSON}
	if _, err := j.process(); err != nil {
		return nil, err
	}
	return j, nil
}

// process compiles the pollution configuration (Parse, Build,
// ValidateAttrs) into a fresh single-pipeline process.
func (j *job) process() (*core.Process, error) {
	doc, err := config.Parse(bytes.NewReader(j.configJSON))
	if err != nil {
		return nil, err
	}
	proc, err := config.Build(doc)
	if err != nil {
		return nil, err
	}
	if len(proc.Pipelines) != 1 {
		return nil, fmt.Errorf("job config must have one pipeline, has %d", len(proc.Pipelines))
	}
	if err := proc.ValidateAttrs(j.schema); err != nil {
		return nil, err
	}
	proc.KeepClean = false
	return proc, nil
}

// generateCSV renders rows air-quality tuples generated from seed. The
// same (seed, rows) always gives the same bytes.
func (j *job) generateCSV(seed int64, rows int) ([]byte, error) {
	tuples := dataset.AirQuality(dataset.RegionWanshouxigong, seed, dataset.AirQualityOptions{Tuples: rows})
	var buf bytes.Buffer
	if err := csvio.WriteAll(&buf, j.schema, tuples); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// cliRef is the Algorithm-1 reference for one CLI invocation: the dirty
// CSV and the pollution log that Process.Run produces.
type cliRef struct {
	dirty, log []byte
	rows       int
}

func (j *job) cliReference(input []byte) (*cliRef, error) {
	proc, err := j.process()
	if err != nil {
		return nil, err
	}
	rd, err := csvio.NewReader(bytes.NewReader(input), j.schema)
	if err != nil {
		return nil, err
	}
	res, err := proc.Run(rd)
	if err != nil {
		return nil, err
	}
	var dirty, logBuf bytes.Buffer
	if err := csvio.WriteAll(&dirty, j.schema, res.Polluted); err != nil {
		return nil, err
	}
	if err := res.Log.WriteJSON(&logBuf); err != nil {
		return nil, err
	}
	return &cliRef{dirty: dirty.Bytes(), log: logBuf.Bytes(), rows: len(res.Polluted)}, nil
}

// servedRef is the reference of one served dirty stream: the streaming
// runner's output at the served reorder window, as per-position row
// hashes, and the log length.
type servedRef struct {
	rows       []uint64
	logEntries int
}

func (j *job) servedReference(input []byte, reorder int) (*servedRef, error) {
	proc, err := j.process()
	if err != nil {
		return nil, err
	}
	rd, err := csvio.NewReader(bytes.NewReader(input), j.schema)
	if err != nil {
		return nil, err
	}
	out, plog, err := proc.RunStream(rd, reorder)
	if err != nil {
		return nil, err
	}
	ref := &servedRef{}
	chk := newStreamCheck(nil)
	var nos []int64
	for {
		t, err := out.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		no, ok := t.At(0).AsInt()
		if !ok {
			return nil, fmt.Errorf("reference row %d has no No value", len(nos))
		}
		ref.rows = append(ref.rows, chk.add(t))
		nos = append(nos, no)
	}
	ref.logEntries = plog.Len()
	// Matching served rows to input rows by No needs each input row
	// exactly once in the reference.
	seen := make([]bool, len(nos)+1)
	for _, no := range nos {
		if no < 1 || int(no) >= len(seen) || seen[no] {
			return nil, fmt.Errorf("reference No values are not a permutation of the input rows (No=%d)", no)
		}
		seen[no] = true
	}
	return ref, nil
}

// streamCheck compares a decoded stream with a reference position by
// position and digests it. A nil reference only digests.
type streamCheck struct {
	ref        *servedRef
	pos        int
	mismatched int
	sum        hash.Hash
	buf        []byte
}

func newStreamCheck(ref *servedRef) *streamCheck {
	return &streamCheck{ref: ref, sum: sha256.New()}
}

// add checks one decoded tuple and returns its row hash.
func (c *streamCheck) add(t stream.Tuple) uint64 {
	c.buf = appendRow(c.buf[:0], t)
	c.sum.Write(c.buf)
	h := fnv.New64a()
	h.Write(c.buf)
	rh := h.Sum64()
	if c.ref != nil && (c.pos >= len(c.ref.rows) || c.ref.rows[c.pos] != rh) {
		c.mismatched++
	}
	c.pos++
	return rh
}

// failures counts wrong, missing and surplus rows, capped at the
// expected row count.
func (c *streamCheck) failures() int {
	want := len(c.ref.rows)
	n := c.mismatched
	if c.pos < want {
		n += want - c.pos
	}
	if n > want {
		n = want
	}
	return n
}

func (c *streamCheck) digest() string { return hex.EncodeToString(c.sum.Sum(nil)) }

// appendRow renders the served form of t — what EncodeTuple puts on the
// wire: id, sub-stream, event and arrival time, and every value.
func appendRow(buf []byte, t stream.Tuple) []byte {
	buf = strconv.AppendUint(buf, t.ID, 10)
	buf = append(buf, '|')
	buf = strconv.AppendInt(buf, int64(t.SubStream), 10)
	buf = append(buf, '|')
	buf = t.EventTime.UTC().AppendFormat(buf, time.RFC3339Nano)
	buf = append(buf, '|')
	buf = t.Arrival.UTC().AppendFormat(buf, time.RFC3339Nano)
	for i := 0; i < t.Len(); i++ {
		buf = append(buf, '|')
		buf = append(buf, t.At(i).String()...)
	}
	return append(buf, '\n')
}
