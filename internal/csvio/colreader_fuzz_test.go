package csvio

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"icewafl/internal/stream"
)

// fuzzColSchema covers every cell parser of ColumnReader.
var fuzzColSchema = stream.MustSchema("ts",
	stream.Field{Name: "ts", Kind: stream.KindTime},
	stream.Field{Name: "v", Kind: stream.KindFloat},
	stream.Field{Name: "n", Kind: stream.KindInt},
	stream.Field{Name: "cat", Kind: stream.KindString},
	stream.Field{Name: "flag", Kind: stream.KindBool},
)

const fuzzColHeader = "ts,v,n,cat,flag\n"

// readEvent is one outcome of a read: a decoded row or an error. Rows
// keep their values, not a rendering, so a string cell that still
// aliased the read buffer would show as changed when the events are
// rendered after the whole input was read.
type readEvent struct {
	row []stream.Value
	err error
}

func renderEvents(evs []readEvent) []string {
	out := make([]string, len(evs))
	for i, ev := range evs {
		if ev.err != nil {
			out[i] = "error: " + ev.err.Error()
			continue
		}
		var b strings.Builder
		for _, v := range ev.row {
			fmt.Fprintf(&b, "%d:%q|", v.Kind(), v.String())
		}
		out[i] = b.String()
	}
	return out
}

// drainSource reads src tuple by tuple until EOF or a fatal error.
func drainSource(t *testing.T, src stream.Source, limit int) []readEvent {
	var evs []readEvent
	for i := 0; i < limit; i++ {
		tp, err := src.Next()
		if err == io.EOF {
			return evs
		}
		if err != nil {
			evs = append(evs, readEvent{err: err})
			if _, ok := stream.AsTupleError(err); !ok {
				return evs
			}
			continue
		}
		evs = append(evs, readEvent{row: tp.Values()})
	}
	t.Fatalf("reader did not reach EOF after %d reads", limit)
	return nil
}

// drainBatches reads cr through ReadBatch(max). The rows of each call
// are copied out as Values before the batch is reset.
func drainBatches(t *testing.T, cr *ColumnReader, max, limit int) []readEvent {
	var evs []readEvent
	batch := stream.NewColumnBatch(cr.Schema(), max)
	for i := 0; i < limit; i++ {
		batch.Reset()
		n, err := cr.ReadBatch(batch, max)
		if n > max {
			t.Fatalf("ReadBatch(%d) appended %d rows", max, n)
		}
		for row := 0; row < n; row++ {
			vs := make([]stream.Value, cr.Schema().Len())
			for col := range vs {
				vs[col] = batch.Value(row, col)
			}
			evs = append(evs, readEvent{row: vs})
		}
		if err == io.EOF {
			return evs
		}
		if err != nil {
			evs = append(evs, readEvent{err: err})
			if _, ok := stream.AsTupleError(err); !ok {
				return evs
			}
		}
	}
	t.Fatalf("ReadBatch(%d) did not reach EOF after %d calls", max, limit)
	return nil
}

// FuzzColumnReader is a differential fuzzer: ColumnReader's own record
// reader must decode any document exactly as Reader, which runs on
// encoding/csv. Both must agree on the header error, and then on every
// row's cells (kind and text) and every error's text, until EOF —
// through ReadBatch at max 1 and 7 and through Next.
func FuzzColumnReader(f *testing.F) {
	h := fuzzColHeader
	for _, seed := range [][2]string{
		{h, "2021-06-01T00:00:00Z,1.5,-3,abc,true\n2021-06-01T01:00:00Z,NaN,0,,false\n"},
		{h, `2021-06-01T00:00:00Z,1,2,"quoted, comma",t` + "\n" + `,,,"second, row",f` + "\n"},
		{h, `2021-06-01T00:00:00Z,1,2,"say ""hi""",F` + "\n" + `,,,"""",` + "\n"},
		{h, "2021-06-01T00:00:00Z,1,2,\"multi\nline\r\nfield\",1\n,,,x,0\n"},
		{h, "2021-06-01T00:00:00Z,1,2,a,true\r\n,,,b,false\r\n"},
		{h, "2021-06-01T00:00:00Z,1,2,a\rb,true\n,,,c,false\r"},
		{h, "2021-06-01T00:00:00Z,1,2,ab\"c,true\n,,,ok,false\n"},
		{h, "2021-06-01T00:00:00Z,1,2,\"ab\"c,true\n,,,ok,false\n"},
		{h, "2021-06-01T00:00:00Z,1,2,\"unterminated,true\n,,,x,false\n"},
		{h, ",,,\"open at eof"},
		{h, "\n\n,,,a,true\n\r\n\n,,,b,false\n\n"},
		{h, ",,,last,true"},
		{h, ",,,short\n,,,long,true,extra\n,,,fine,true\n"},
		{h, "not-a-time,1,2,a,true\n,1.2.3,2,a,true\n,1,2.5,a,true\n,1,2,a,yes\n,1e999,99999999999999999999,a,true\n"},
		{h, ",-0,-0,Ωλ,TRUE\n,+Inf,+7,\" lead\",False\n,0x1p-2,0,\"\",1\n"},
		{h, "\"2021-06-01T00:00:00Z\",\"1\",\"2\",\"x\",\"true\"\n"},
		{h, "2021-06-01T00:00:00+02:00,1,2,a,true\n2021-06-01T00:00:00.123456789-07:30,1,2,a,true\n"},
		{h, "\"a\"\"b\",1,2,x,true\n\"\",\"\n\",2,x,true\n"},
		{h, "\"a\"\n"},
		{"\"ts\",v,n,cat,flag\r\n", ",,,x,true\n"},
		{"ts,v,n,cat\n", ",,,x\n"},
		{"ts,v,n,cat,flags\n", ""},
		{"ts,\"v\nn\",n,cat,flag\n", ""},
		{"", ""},
		{"\n\n", ""},
		{"ts,v,n,cat,\"flag", ""},
	} {
		f.Add(seed[0], seed[1])
	}

	f.Fuzz(func(t *testing.T, head, body string) {
		doc := head + body
		limit := len(doc) + 2

		want, werr := NewReader(strings.NewReader(doc), fuzzColSchema)
		newCol := func() *ColumnReader {
			cr, err := NewColumnReader(strings.NewReader(doc), fuzzColSchema)
			switch {
			case (err == nil) != (werr == nil):
				t.Fatalf("header: ColumnReader error %v, Reader error %v", err, werr)
			case err != nil && err.Error() != werr.Error():
				t.Fatalf("header error diverged\ncolumn: %v\nreader: %v", err, werr)
			}
			return cr
		}
		if cr := newCol(); werr != nil || cr == nil {
			return
		}
		oracle := renderEvents(drainSource(t, want, limit))

		variants := map[string]func() []readEvent{
			"ReadBatch(1)": func() []readEvent { return drainBatches(t, newCol(), 1, limit) },
			"ReadBatch(7)": func() []readEvent { return drainBatches(t, newCol(), 7, limit) },
			"Next":         func() []readEvent { return drainSource(t, newCol(), limit) },
		}
		for name, run := range variants {
			got := renderEvents(run())
			if len(got) != len(oracle) {
				t.Fatalf("%s: %d events, Reader %d\n%s: %q\nReader: %q", name, len(got), len(oracle), name, got, oracle)
			}
			for i := range oracle {
				if got[i] != oracle[i] {
					t.Fatalf("%s: event %d diverged\n%s: %s\nReader: %s", name, i, name, got[i], oracle[i])
				}
			}
		}
	})
}

// TestColumnReaderBeyondBuffer runs documents larger than the record
// reader's read buffer against Reader: lines longer than the buffer,
// unquoted and inside multi-line quoted fields, and many short rows
// with distinct string cells, which would change under a later refill
// if a cell still aliased the buffer.
func TestColumnReaderBeyondBuffer(t *testing.T) {
	long := strings.Repeat("x", 150<<10)
	var many strings.Builder
	many.WriteString(fuzzColHeader)
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&many, "2021-06-01T00:00:00Z,%d.5,%d,cell-%06d,true\n", i, i, i)
	}
	for name, doc := range map[string]string{
		"long lines": fuzzColHeader +
			",,," + long + ",true\n" +
			",1,2,\"" + long + "\n" + long + "\"\"\",false\r\n" +
			",,,\"" + long + "\n,,,tail,true\n",
		"many rows": many.String(),
	} {
		want, err := NewReader(strings.NewReader(doc), fuzzColSchema)
		if err != nil {
			t.Fatal(err)
		}
		oracle := strings.Join(renderEvents(drainSource(t, want, 1<<20)), "\n")
		for _, max := range []int{1, 7} {
			cr, err := NewColumnReader(strings.NewReader(doc), fuzzColSchema)
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Join(renderEvents(drainBatches(t, cr, max, 1<<20)), "\n"); got != oracle {
				t.Fatalf("%s: ReadBatch(%d) diverged from Reader", name, max)
			}
		}
	}
}
