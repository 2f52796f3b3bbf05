// Package csvio reads and writes tuple streams as CSV, the file-based
// source/sink of the pollution workflow (Figure 2's "Data Batch" input
// and "Dirty Data" / "Clean Data" outputs). A header row carries the
// attribute names; NULL values round-trip as empty cells.
package csvio

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"

	"icewafl/internal/stream"
)

// Reader is a stream.Source decoding CSV rows into tuples.
type Reader struct {
	schema *stream.Schema
	csv    *csv.Reader
	row    int
}

// NewReader wraps r, validating that the CSV header matches the schema's
// attribute names in order.
func NewReader(r io.Reader, schema *stream.Schema) (*Reader, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = schema.Len()
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("csvio: read header: %w", err)
	}
	names := schema.Names()
	for i, name := range names {
		if header[i] != name {
			return nil, fmt.Errorf("csvio: header column %d is %q, schema expects %q", i, header[i], name)
		}
	}
	return &Reader{schema: schema, csv: cr, row: 1}, nil
}

// Schema implements stream.Source.
func (r *Reader) Schema() *stream.Schema { return r.schema }

// Next implements stream.Source. Row-level failures — a malformed CSV
// record or an unparseable cell — are returned as *stream.TupleError, and
// the reader remains usable: the next call continues with the following
// row. This lets stream.Quarantine divert poisoned rows to a dead-letter
// queue instead of aborting the whole run.
func (r *Reader) Next() (stream.Tuple, error) {
	rec, err := r.csv.Read()
	if err == io.EOF {
		return stream.Tuple{}, io.EOF
	}
	if err != nil {
		r.row++
		return stream.Tuple{}, &stream.TupleError{
			Offset: uint64(r.row),
			Stage:  "csv-decode",
			Err:    fmt.Errorf("csvio: row %d: %w", r.row, err),
		}
	}
	r.row++
	values := make([]stream.Value, r.schema.Len())
	for i := range values {
		v, err := stream.ParseValue(rec[i], r.schema.Field(i).Kind)
		if err != nil {
			return stream.Tuple{}, &stream.TupleError{
				Offset: uint64(r.row),
				Stage:  "csv-decode",
				Err:    fmt.Errorf("csvio: row %d column %q: %w", r.row, r.schema.Field(i).Name, err),
			}
		}
		values[i] = v
	}
	return stream.NewTuple(r.schema, values), nil
}

// Writer is a stream.Sink encoding tuples as CSV rows.
type Writer struct {
	schema *stream.Schema
	rows   rowWriter
}

// NewWriter wraps w. The header row is written lazily with the first
// tuple (or at Close for empty streams).
func NewWriter(w io.Writer, schema *stream.Schema) *Writer {
	return &Writer{schema: schema, rows: newRowWriter(w)}
}

func (w *Writer) writeHeader() error {
	if w.rows.wrote {
		return nil
	}
	return w.rows.header(w.schema.Names())
}

// OmitHeader marks the header as already written. Checkpoint resume uses
// it when appending to an output file whose header row survives from the
// interrupted run.
func (w *Writer) OmitHeader() { w.rows.wrote = true }

// Flush pushes buffered rows to the underlying writer. Checkpointing
// calls it before recording a file offset so the offset reflects every
// row written so far.
func (w *Writer) Flush() error {
	if err := w.rows.w.Flush(); err != nil {
		return fmt.Errorf("csvio: flush: %w", err)
	}
	return nil
}

// Write implements stream.Sink.
func (w *Writer) Write(t stream.Tuple) error {
	if err := w.writeHeader(); err != nil {
		return fmt.Errorf("csvio: write header: %w", err)
	}
	b := w.rows.row[:0]
	for i, v := range t.Values() {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendCell(b, v)
	}
	if err := w.rows.emit(b); err != nil {
		return fmt.Errorf("csvio: write row: %w", err)
	}
	return nil
}

// Close implements stream.Sink, flushing buffered rows.
func (w *Writer) Close() error {
	if err := w.writeHeader(); err != nil {
		return err
	}
	return w.Flush()
}

// rowWriter is the CSV encoder Writer and MetaWriter share. Each row
// is rendered into one reused buffer — cells straight from their
// values, with no per-cell strings — and handed to a bufio.Writer. The
// bytes are exactly those of an encoding/csv Writer with its defaults
// (Comma ',', UseCRLF false) writing each cell's Value.String;
// FuzzCSVWrite holds the two side by side.
type rowWriter struct {
	w     *bufio.Writer
	row   []byte
	wrote bool // header row written, or suppressed by OmitHeader
}

// writeBufferSize is the output buffer of a rowWriter.
const writeBufferSize = 64 << 10

func newRowWriter(w io.Writer) rowWriter {
	return rowWriter{w: bufio.NewWriterSize(w, writeBufferSize)}
}

// header writes names as the header row.
func (rw *rowWriter) header(names []string) error {
	rw.wrote = true
	b := rw.row[:0]
	for i, name := range names {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendField(b, name)
	}
	return rw.emit(b)
}

// emit terminates the row rendered in b, keeps b as the buffer for the
// next row and writes it out.
func (rw *rowWriter) emit(b []byte) error {
	rw.row = append(b, '\n')
	_, err := rw.w.Write(rw.row)
	return err
}

// appendCell appends v's Value.String rendering as one field. Only
// string values can need quoting: every other kind renders as digits,
// signs, letters, '.', ':' and '-', and NULL as the empty field.
func appendCell(b []byte, v stream.Value) []byte {
	if s, ok := v.AsString(); ok {
		return appendField(b, s)
	}
	return v.Append(b)
}

// appendField appends s as one field, quoted exactly when encoding/csv
// quotes it. Inside quotes a '"' is doubled; '\r' and '\n' are copied
// verbatim.
func appendField(b []byte, s string) []byte {
	if !fieldNeedsQuotes(s) {
		return append(b, s...)
	}
	b = append(b, '"')
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			break
		}
		b = append(b, s[:i+1]...)
		b = append(b, '"')
		s = s[i+1:]
	}
	b = append(b, s...)
	return append(b, '"')
}

// fieldNeedsQuotes is encoding/csv's quoting rule for Comma ',': the
// empty field never, the end-of-data marker \. always, otherwise a
// field holding ',', '"', '\r' or '\n' or starting with a space rune.
func fieldNeedsQuotes(s string) bool {
	if s == "" {
		return false
	}
	if s == `\.` {
		return true
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ',', '"', '\r', '\n':
			return true
		}
	}
	r, _ := utf8.DecodeRuneInString(s)
	return unicode.IsSpace(r)
}

// WriteAll writes tuples to w as CSV in one call.
func WriteAll(w io.Writer, schema *stream.Schema, tuples []stream.Tuple) error {
	cw := NewWriter(w, schema)
	for _, t := range tuples {
		if err := cw.Write(t); err != nil {
			return err
		}
	}
	return cw.Close()
}

// ReadAll decodes an entire CSV document into tuples.
func ReadAll(r io.Reader, schema *stream.Schema) ([]stream.Tuple, error) {
	cr, err := NewReader(r, schema)
	if err != nil {
		return nil, err
	}
	return stream.Drain(cr)
}
