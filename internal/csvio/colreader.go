package csvio

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"
	"unsafe"

	"icewafl/internal/stream"
)

// ColumnReader is the batch-native CSV ingest path: rows decode
// straight into the typed payload arrays of a caller-provided
// stream.ColumnBatch, bypassing per-tuple materialisation. Records come
// from recordReader as byte views of the read buffer, so a row costs no
// record slice and no per-record string; numeric, bool and time cells
// parse straight off those views, and only string cells are copied
// (they outlive the read buffer).
//
// It also implements stream.Source, so the same reader feeds tuple-wise
// consumers; the columnar runner detects ReadBatch and bypasses Next.
// Values, row numbering and *stream.TupleError semantics are identical
// to Reader, which stays on encoding/csv as the independent oracle —
// the equivalence tests in colreader_test.go and FuzzColumnReader pin
// the two paths cell by cell and error by error.
type ColumnReader struct {
	schema *stream.Schema
	rec    recordReader
	row    int
}

// NewColumnReader wraps r, validating the CSV header against the
// schema's attribute names in order, like NewReader.
func NewColumnReader(r io.Reader, schema *stream.Schema) (*ColumnReader, error) {
	cr := &ColumnReader{
		schema: schema,
		rec:    recordReader{r: bufio.NewReaderSize(r, 64<<10), fields: schema.Len()},
		row:    1,
	}
	header, err := cr.rec.read()
	if err != nil {
		return nil, fmt.Errorf("csvio: read header: %w", err)
	}
	names := schema.Names()
	for i, name := range names {
		if string(header[i]) != name {
			return nil, fmt.Errorf("csvio: header column %d is %q, schema expects %q", i, string(header[i]), name)
		}
	}
	return cr, nil
}

// Schema implements stream.ColumnBatchReader and stream.Source.
func (r *ColumnReader) Schema() *stream.Schema { return r.schema }

// tupleErr wraps a row-level failure exactly like Reader.Next does.
func (r *ColumnReader) tupleErr(err error) *stream.TupleError {
	return &stream.TupleError{
		Offset: uint64(r.row),
		Stage:  "csv-decode",
		Err:    err,
	}
}

// view returns b as a string without copying. The result aliases the
// read buffer and must be dead before the next read. Parsing numeric,
// bool and time cells through views is safe because nothing keeps the
// input: strconv's NumError and time's ParseError clone it
// (stringslite.Clone, Go 1.24), time.Parse's RFC 3339 form keeps no
// part of it in the Time, and the %q wrapping below formats it at once.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// decodeInto parses rec into row `row` of dst. On a cell parse failure
// it returns the error with the column name already attached; the
// caller rolls the row back.
func (r *ColumnReader) decodeInto(dst *stream.ColumnBatch, row int, rec [][]byte) error {
	for i, b := range rec {
		if len(b) == 0 {
			continue // KindNull from AppendEmptyRow
		}
		cell := view(b)
		switch kind := r.schema.Field(i).Kind; kind {
		case stream.KindNull:
			// Stays NULL, like ParseValue.
		case stream.KindFloat:
			f, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return fmt.Errorf("csvio: row %d column %q: %w", r.row, r.schema.Field(i).Name, fmt.Errorf("stream: parse float %q: %w", cell, err))
			}
			payload, kinds := dst.Floats(i)
			payload[row], kinds[row] = f, stream.KindFloat
		case stream.KindInt:
			n, err := strconv.ParseInt(cell, 10, 64)
			if err != nil {
				return fmt.Errorf("csvio: row %d column %q: %w", r.row, r.schema.Field(i).Name, fmt.Errorf("stream: parse int %q: %w", cell, err))
			}
			payload, kinds := dst.Ints(i)
			payload[row], kinds[row] = n, stream.KindInt
		case stream.KindString:
			payload, kinds := dst.Strs(i)
			payload[row], kinds[row] = string(b), stream.KindString
		case stream.KindBool:
			v, err := strconv.ParseBool(cell)
			if err != nil {
				return fmt.Errorf("csvio: row %d column %q: %w", r.row, r.schema.Field(i).Name, fmt.Errorf("stream: parse bool %q: %w", cell, err))
			}
			payload, kinds := dst.Bools(i)
			payload[row], kinds[row] = v, stream.KindBool
		case stream.KindTime:
			ts, err := time.Parse(time.RFC3339, cell)
			if err != nil {
				return fmt.Errorf("csvio: row %d column %q: %w", r.row, r.schema.Field(i).Name, fmt.Errorf("stream: parse time %q: %w", cell, err))
			}
			payload, kinds := dst.Times(i)
			payload[row], kinds[row] = ts, stream.KindTime
		default:
			return fmt.Errorf("csvio: row %d column %q: stream: cannot parse into kind %v", r.row, r.schema.Field(i).Name, kind)
		}
	}
	return nil
}

// ReadBatch implements stream.ColumnBatchReader: it appends up to max
// decoded rows to dst. A malformed record or unparseable cell surfaces
// as a *stream.TupleError with the rows decoded before it staying
// appended, and the reader continues with the following row on the next
// call.
func (r *ColumnReader) ReadBatch(dst *stream.ColumnBatch, max int) (int, error) {
	appended := 0
	for appended < max {
		rec, err := r.rec.read()
		if err == io.EOF {
			if appended == 0 {
				return 0, io.EOF
			}
			return appended, nil
		}
		r.row++
		if err != nil {
			return appended, r.tupleErr(fmt.Errorf("csvio: row %d: %w", r.row, err))
		}
		row := dst.AppendEmptyRow()
		if derr := r.decodeInto(dst, row, rec); derr != nil {
			dst.TruncateRows(row)
			return appended, r.tupleErr(derr)
		}
		appended++
	}
	return appended, nil
}

// Next implements stream.Source with the exact semantics of
// Reader.Next. Each cell is copied out of the read buffer before
// ParseValue, which keeps string cells as they are.
func (r *ColumnReader) Next() (stream.Tuple, error) {
	rec, err := r.rec.read()
	if err == io.EOF {
		return stream.Tuple{}, io.EOF
	}
	r.row++
	if err != nil {
		return stream.Tuple{}, r.tupleErr(fmt.Errorf("csvio: row %d: %w", r.row, err))
	}
	values := make([]stream.Value, r.schema.Len())
	for i := range values {
		v, perr := stream.ParseValue(string(rec[i]), r.schema.Field(i).Kind)
		if perr != nil {
			return stream.Tuple{}, r.tupleErr(fmt.Errorf("csvio: row %d column %q: %w", r.row, r.schema.Field(i).Name, perr))
		}
		values[i] = v
	}
	return stream.NewTuple(r.schema, values), nil
}

// recordReader is encoding/csv's Reader.readLine and readRecord cut
// down to the settings ColumnReader uses: comma ',', no comment
// character, no LazyQuotes, no TrimLeadingSpace, and a fixed
// FieldsPerRecord. It returns a record as byte views that are valid
// until the next read, and fails with the *csv.ParseError values
// csv.Reader returns (same Err, StartLine, Line and Column).
//
// A line without '"' — the common case — is split in place: its fields
// are sub-slices of the bufio line. A line with a quote takes the
// ported quoted-field loop, which unescapes into recordBuffer ("" to ",
// fields spanning lines, \r\n to \n).
type recordReader struct {
	r       *bufio.Reader
	fields  int // csv.Reader.FieldsPerRecord, > 0
	numLine int

	rawBuffer    []byte   // a line longer than the bufio buffer
	recordBuffer []byte   // unescaped fields of a quoted record, back to back
	fieldIndexes []int    // end of each field in recordBuffer
	record       [][]byte // the views read returns
}

// readLine reads the next line (with the trailing endline). If EOF is
// hit without a trailing endline, it is omitted. If some bytes were
// read, the error is never io.EOF. The result is only valid until the
// next call to readLine.
func (r *recordReader) readLine() ([]byte, error) {
	line, err := r.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		r.rawBuffer = append(r.rawBuffer[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = r.r.ReadSlice('\n')
			r.rawBuffer = append(r.rawBuffer, line...)
		}
		line = r.rawBuffer
	}
	readSize := len(line)
	if readSize > 0 && err == io.EOF {
		err = nil
		// Like encoding/csv, drop a trailing \r before EOF.
		if line[readSize-1] == '\r' {
			line = line[:readSize-1]
		}
	}
	r.numLine++
	// Normalize \r\n to \n on all input lines.
	if n := len(line); n >= 2 && line[n-2] == '\r' && line[n-1] == '\n' {
		line[n-2] = '\n'
		line = line[:n-1]
	}
	return line, err
}

// lengthNL reports the number of bytes for the trailing \n.
func lengthNL(b []byte) int {
	if len(b) > 0 && b[len(b)-1] == '\n' {
		return 1
	}
	return 0
}

// read returns the next record, skipping empty lines. On a parse error
// the record is incomplete and must not be used.
func (r *recordReader) read() ([][]byte, error) {
	var line []byte
	var errRead error
	for errRead == nil {
		line, errRead = r.readLine()
		if errRead == nil && len(line) == lengthNL(line) {
			line = nil
			continue // Skip empty lines
		}
		break
	}
	if errRead == io.EOF {
		return nil, errRead
	}

	recLine := r.numLine
	err := errRead
	r.record = r.record[:0]
	if bytes.IndexByte(line, '"') < 0 {
		line = line[:len(line)-lengthNL(line)]
		for {
			i := bytes.IndexByte(line, ',')
			if i < 0 {
				r.record = append(r.record, line)
				break
			}
			r.record = append(r.record, line[:i])
			line = line[i+1:]
		}
	} else {
		err = r.parseQuoted(line, errRead, recLine)
		var pre int
		for _, idx := range r.fieldIndexes {
			r.record = append(r.record, r.recordBuffer[pre:idx])
			pre = idx
		}
	}

	if len(r.record) != r.fields && err == nil {
		err = &csv.ParseError{StartLine: recLine, Line: recLine, Column: 1, Err: csv.ErrFieldCount}
	}
	return r.record, err
}

// parseQuoted is readRecord's field loop for a line that holds a '"'.
// It fills recordBuffer and fieldIndexes and returns a parse error, the
// read error that ended the record, or nil.
func (r *recordReader) parseQuoted(line []byte, errRead error, recLine int) error {
	r.recordBuffer = r.recordBuffer[:0]
	r.fieldIndexes = r.fieldIndexes[:0]
	posLine, col := r.numLine, 1
field:
	for {
		if len(line) == 0 || line[0] != '"' {
			// Non-quoted field.
			i := bytes.IndexByte(line, ',')
			f := line
			if i >= 0 {
				f = f[:i]
			} else {
				f = f[:len(f)-lengthNL(f)]
			}
			if j := bytes.IndexByte(f, '"'); j >= 0 {
				return &csv.ParseError{StartLine: recLine, Line: r.numLine, Column: col + j, Err: csv.ErrBareQuote}
			}
			r.recordBuffer = append(r.recordBuffer, f...)
			r.fieldIndexes = append(r.fieldIndexes, len(r.recordBuffer))
			if i < 0 {
				return errRead
			}
			line = line[i+1:]
			col += i + 1
			continue
		}
		// Quoted field.
		line = line[1:]
		col++
		for {
			i := bytes.IndexByte(line, '"')
			switch {
			case i >= 0:
				// Hit next quote.
				r.recordBuffer = append(r.recordBuffer, line[:i]...)
				line = line[i+1:]
				col += i + 1
				switch {
				case len(line) > 0 && line[0] == '"':
					// `""` sequence (append quote).
					r.recordBuffer = append(r.recordBuffer, '"')
					line = line[1:]
					col++
				case len(line) > 0 && line[0] == ',':
					// `",` sequence (end of field).
					line = line[1:]
					col++
					r.fieldIndexes = append(r.fieldIndexes, len(r.recordBuffer))
					continue field
				case lengthNL(line) == len(line):
					// `"\n` sequence (end of line).
					r.fieldIndexes = append(r.fieldIndexes, len(r.recordBuffer))
					return errRead
				default:
					// `"*` sequence (invalid non-escaped quote).
					return &csv.ParseError{StartLine: recLine, Line: r.numLine, Column: col - 1, Err: csv.ErrQuote}
				}
			case len(line) > 0:
				// Hit end of line (copy all data so far).
				r.recordBuffer = append(r.recordBuffer, line...)
				if errRead != nil {
					return errRead
				}
				col += len(line)
				line, errRead = r.readLine()
				if len(line) > 0 {
					posLine++
					col = 1
				}
				if errRead == io.EOF {
					errRead = nil
				}
			default:
				// Abrupt end of file (EOF or error).
				if errRead == nil {
					return &csv.ParseError{StartLine: recLine, Line: posLine, Column: col, Err: csv.ErrQuote}
				}
				r.fieldIndexes = append(r.fieldIndexes, len(r.recordBuffer))
				return errRead
			}
		}
	}
}
