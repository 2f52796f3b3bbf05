package csvio

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"icewafl/internal/stream"
)

// Algorithm 1's step 3 emits tuples of the form (id, i, a1, …, ak, ts):
// the pollution-immune tuple identifier and the sub-stream index travel
// with the data so downstream consumers can join the polluted stream
// back to the clean one. MetaWriter/MetaReader implement that format as
// CSV: two leading columns `_id` and `_substream` before the schema's
// attributes, optionally followed by `_arrival` — the delivery
// timestamp. Without `_arrival`, the reader re-derives Arrival from the
// timestamp attribute, which erases delayed-tuple pollution (a delayed
// tuple's arrival is precisely NOT its event time); with it, windowed
// consumers reproduce the live stream's window boundaries exactly.

// MetaColumns are the reserved metadata column names.
var MetaColumns = []string{"_id", "_substream"}

// ArrivalColumn is the optional third metadata column carrying the
// tuple's arrival time (RFC3339 with nanoseconds).
const ArrivalColumn = "_arrival"

// arrivalTime is the `_arrival` encoding: RFC3339Nano, matching the
// netstream wire format so round trips are exact.
const arrivalTime = time.RFC3339Nano

// MetaWriter encodes tuples with their identity metadata.
type MetaWriter struct {
	schema  *stream.Schema
	rows    rowWriter
	arrival bool
}

// NewMetaWriter wraps w.
func NewMetaWriter(w io.Writer, schema *stream.Schema) *MetaWriter {
	return &MetaWriter{schema: schema, rows: newRowWriter(w)}
}

// IncludeArrival adds the `_arrival` column so delayed arrivals survive
// the round trip. Must be called before the first Write.
func (w *MetaWriter) IncludeArrival() { w.arrival = true }

func (w *MetaWriter) writeHeader() error {
	if w.rows.wrote {
		return nil
	}
	header := append([]string{}, MetaColumns...)
	if w.arrival {
		header = append(header, ArrivalColumn)
	}
	header = append(header, w.schema.Names()...)
	return w.rows.header(header)
}

// OmitHeader marks the header as already written (checkpoint resume).
func (w *MetaWriter) OmitHeader() { w.rows.wrote = true }

// Flush pushes buffered rows to the underlying writer.
func (w *MetaWriter) Flush() error {
	if err := w.rows.w.Flush(); err != nil {
		return fmt.Errorf("csvio: flush meta: %w", err)
	}
	return nil
}

// Write implements stream.Sink.
func (w *MetaWriter) Write(t stream.Tuple) error {
	if err := w.writeHeader(); err != nil {
		return fmt.Errorf("csvio: write meta header: %w", err)
	}
	b := strconv.AppendUint(w.rows.row[:0], t.ID, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(t.SubStream), 10)
	if w.arrival {
		b = append(b, ',')
		b = t.Arrival.UTC().AppendFormat(b, arrivalTime)
	}
	for _, v := range t.Values() {
		b = appendCell(append(b, ','), v)
	}
	if err := w.rows.emit(b); err != nil {
		return fmt.Errorf("csvio: write meta row: %w", err)
	}
	return nil
}

// Close implements stream.Sink.
func (w *MetaWriter) Close() error {
	if err := w.writeHeader(); err != nil {
		return err
	}
	return w.Flush()
}

// MetaReader decodes the metadata format back into tuples with ID and
// SubStream restored. When the header carries the optional `_arrival`
// column, Arrival is restored exactly; otherwise EventTime and Arrival
// are re-derived from the timestamp attribute.
type MetaReader struct {
	schema  *stream.Schema
	csv     *csv.Reader
	row     int
	arrival bool
}

// NewMetaReader wraps r, validating the header (the `_arrival` column
// is detected from it).
func NewMetaReader(r io.Reader, schema *stream.Schema) (*MetaReader, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("csvio: read meta header: %w", err)
	}
	for i, name := range MetaColumns {
		if i >= len(header) || header[i] != name {
			return nil, fmt.Errorf("csvio: meta column %d is missing or not %q", i, name)
		}
	}
	meta := len(MetaColumns)
	arrival := false
	if len(header) > meta && header[meta] == ArrivalColumn {
		arrival = true
		meta++
	}
	if len(header) != meta+schema.Len() {
		return nil, fmt.Errorf("csvio: meta header has %d columns, want %d", len(header), meta+schema.Len())
	}
	for i, name := range schema.Names() {
		if header[meta+i] != name {
			return nil, fmt.Errorf("csvio: header column %d is %q, schema expects %q",
				meta+i, header[meta+i], name)
		}
	}
	// Every data row must match the header's shape.
	cr.FieldsPerRecord = meta + schema.Len()
	return &MetaReader{schema: schema, csv: cr, row: 1, arrival: arrival}, nil
}

// Schema implements stream.Source.
func (r *MetaReader) Schema() *stream.Schema { return r.schema }

// Next implements stream.Source.
func (r *MetaReader) Next() (stream.Tuple, error) {
	rec, err := r.csv.Read()
	if err == io.EOF {
		return stream.Tuple{}, io.EOF
	}
	if err != nil {
		return stream.Tuple{}, fmt.Errorf("csvio: meta row %d: %w", r.row+1, err)
	}
	r.row++
	id, err := strconv.ParseUint(rec[0], 10, 64)
	if err != nil {
		return stream.Tuple{}, fmt.Errorf("csvio: meta row %d: bad _id %q: %w", r.row, rec[0], err)
	}
	sub, err := strconv.Atoi(rec[1])
	if err != nil {
		return stream.Tuple{}, fmt.Errorf("csvio: meta row %d: bad _substream %q: %w", r.row, rec[1], err)
	}
	meta := len(MetaColumns)
	var arrival time.Time
	if r.arrival {
		arrival, err = time.Parse(arrivalTime, rec[meta])
		if err != nil {
			return stream.Tuple{}, fmt.Errorf("csvio: meta row %d: bad %s %q: %w", r.row, ArrivalColumn, rec[meta], err)
		}
		meta++
	}
	values := make([]stream.Value, r.schema.Len())
	for i := range values {
		v, err := stream.ParseValue(rec[meta+i], r.schema.Field(i).Kind)
		if err != nil {
			return stream.Tuple{}, fmt.Errorf("csvio: meta row %d column %q: %w", r.row, r.schema.Field(i).Name, err)
		}
		values[i] = v
	}
	t := stream.NewTuple(r.schema, values)
	t.ID = id
	t.SubStream = sub
	if ts, ok := t.Timestamp(); ok {
		t.EventTime = ts
		t.Arrival = ts
	}
	if r.arrival {
		t.Arrival = arrival
	}
	return t, nil
}

// WriteAllMeta writes tuples with metadata in one call.
func WriteAllMeta(w io.Writer, schema *stream.Schema, tuples []stream.Tuple) error {
	mw := NewMetaWriter(w, schema)
	for _, t := range tuples {
		if err := mw.Write(t); err != nil {
			return err
		}
	}
	return mw.Close()
}
