package core

import (
	"bytes"
	"io"
	"testing"

	"icewafl/internal/csvio"
	"icewafl/internal/stream"
)

// TestColumnarCLIShapeAllocs holds the shape of `icewafl -stream
// -columnar` to a per-row allocation budget: csvio.ColumnReader →
// RunStreamColumnar with a tuple pool behind a reorder window of 64 →
// csvio.Writer. In steady state a row may allocate its string cells
// (copied out of the read buffer) plus a fraction for what the
// pipeline itself makes (typo strings, log growth); a per-row value
// buffer or record would add one or more.
func TestColumnarCLIShapeAllocs(t *testing.T) {
	const seed, rows, warm, chunk = 31, 6000, 2000, 500
	schema := diffSchema()
	var input bytes.Buffer
	w := csvio.NewWriter(&input, schema)
	if _, err := stream.Copy(w, diffSource(schema, seed, rows)); err != nil {
		t.Fatal(err)
	}
	strCells := 0
	for i := 0; i < schema.Len(); i++ {
		if schema.Field(i).Kind == stream.KindString {
			strCells++
		}
	}

	reader, err := csvio.NewColumnReader(bytes.NewReader(input.Bytes()), schema)
	if err != nil {
		t.Fatal(err)
	}
	proc := &Process{Pipelines: []*Pipeline{vectorisedPipeline(seed)}}
	proc.Columnar.Pool = stream.NewTuplePoolFor(schema)
	out, _, err := proc.RunStreamColumnar(reader, 64)
	if err != nil {
		t.Fatal(err)
	}
	sink := csvio.NewWriter(io.Discard, schema)
	pump := func(n int) {
		for i := 0; i < n; i++ {
			tp, err := out.Next()
			if err != nil {
				t.Fatalf("row %d: %v", i, err)
			}
			if err := sink.Write(tp); err != nil {
				t.Fatal(err)
			}
		}
	}
	pump(warm)
	// AllocsPerRun runs pump once more as warm-up, then 4 measured times;
	// drops make the output a little shorter than the input.
	perRow := testing.AllocsPerRun(4, func() { pump(chunk) }) / chunk
	if limit := float64(strCells) + 0.5; perRow > limit {
		t.Fatalf("%.2f allocations per row, want at most %.1f (%d string cells + 0.5)", perRow, limit, strCells)
	}
	t.Logf("%.3f allocations per row (%d string cells)", perRow, strCells)
}
