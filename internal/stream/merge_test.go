package stream

import (
	"errors"
	"io"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// sliceReorder is the straightforward BoundedReorder model: a sorted
// slice, popped from the front, appended to on insert.
func sliceReorder(in []Tuple, capacity int) []uint64 {
	var buf []Tuple
	var out []uint64
	for len(in) > 0 || len(buf) > 0 {
		for len(in) > 0 && len(buf) < capacity {
			t := in[0]
			in = in[1:]
			i := sort.Search(len(buf), func(i int) bool {
				b := buf[i]
				if !b.Arrival.Equal(t.Arrival) {
					return b.Arrival.After(t.Arrival)
				}
				return b.ID > t.ID
			})
			buf = append(buf, Tuple{})
			copy(buf[i+1:], buf[i:])
			buf[i] = t
		}
		out = append(out, buf[0].ID)
		buf = buf[1:]
	}
	return out
}

// TestBoundedReorderMatchesSliceModel pins the ring buffer's emission
// order to the slice model over random delays with many arrival ties
// (and repeated IDs), for windows around the ring's growth steps.
func TestBoundedReorderMatchesSliceModel(t *testing.T) {
	s := testSchema(t)
	rnd := rand.New(rand.NewSource(7))
	base := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, capacity := range []int{1, 2, 3, 15, 16, 17, 33, 64, 100} {
		for trial := 0; trial < 20; trial++ {
			n := rnd.Intn(300)
			in := makeTuples(s, n)
			for i := range in {
				in[i].ID = uint64(i + 1)
				if rnd.Intn(10) == 0 {
					in[i].ID = uint64(rnd.Intn(n) + 1)
				}
				delay := 0
				if rnd.Intn(4) == 0 {
					delay = rnd.Intn(2 * capacity)
				}
				in[i].Arrival = base.Add(time.Duration(i+delay) * time.Minute)
			}
			want := sliceReorder(in, capacity)
			got, err := Drain(NewBoundedReorder(NewSliceSource(s, in), capacity))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("cap %d: emitted %d tuples, model %d", capacity, len(got), len(want))
			}
			for i := range want {
				if got[i].ID != want[i] {
					t.Fatalf("cap %d trial %d: position %d is ID %d, model %d", capacity, trial, i, got[i].ID, want[i])
				}
			}
		}
	}
}

// failingSource yields its tuples, with a row error before index fail.
type failingSource struct {
	*SliceSource
	pos, fail int
}

func (f *failingSource) Next() (Tuple, error) {
	if f.pos == f.fail {
		f.pos++
		return Tuple{}, &TupleError{Offset: uint64(f.fail), Err: errors.New("bad row")}
	}
	f.pos++
	return f.SliceSource.Next()
}

// A source error passes through without losing buffered tuples.
func TestBoundedReorderKeepsWindowAcrossErrors(t *testing.T) {
	s := testSchema(t)
	in := makeTuples(s, 40)
	for i := range in {
		in[i].ID = uint64(i + 1)
		in[i].Arrival = in[i].EventTime
	}
	r := NewBoundedReorder(&failingSource{SliceSource: NewSliceSource(s, in), fail: 20}, 8)
	var ids []uint64
	errs := 0
	for {
		tp, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			errs++
			continue
		}
		ids = append(ids, tp.ID)
	}
	if errs != 1 || len(ids) != 40 {
		t.Fatalf("got %d tuples and %d errors, want 40 and 1", len(ids), errs)
	}
	for i, id := range ids {
		if id != uint64(i+1) {
			t.Fatalf("position %d is ID %d", i, id)
		}
	}
}

// cycleSource emits an endless, nearly sorted stream without
// allocating: every fourth tuple arrives three slots late.
type cycleSource struct {
	schema *Schema
	values []Value
	base   time.Time
	i      int
}

func (c *cycleSource) Schema() *Schema { return c.schema }

func (c *cycleSource) Next() (Tuple, error) {
	c.i++
	delay := 0
	if c.i%4 == 0 {
		delay = 3
	}
	t := NewTuple(c.schema, c.values)
	t.ID = uint64(c.i)
	t.Arrival = c.base.Add(time.Duration(c.i+delay) * time.Second)
	return t, nil
}

// TestBoundedReorderSteadyStateAllocs: once the window has filled, Next
// allocates nothing (the ring is never re-grown).
func TestBoundedReorderSteadyStateAllocs(t *testing.T) {
	s := testSchema(t)
	src := &cycleSource{schema: s, values: []Value{Null(), Float(1)}, base: time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)}
	r := NewBoundedReorder(src, 64)
	for i := 0; i < 256; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}
	// Measure whole runs of Next calls: AllocsPerRun rounds down per
	// run, and a slice re-grown every few windows would average below
	// one allocation per call.
	var last Tuple
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1024; i++ {
			tp, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if tp.Arrival.Before(last.Arrival) {
				t.Fatal("emitted out of arrival order")
			}
			last = tp
		}
	})
	if allocs != 0 {
		t.Fatalf("BoundedReorder.Next allocates %.0f times per 1024 calls in steady state, want 0", allocs)
	}
}
