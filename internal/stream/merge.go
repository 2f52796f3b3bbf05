package stream

import (
	"io"
	"sort"
)

// SortMerge implements step 3 of Algorithm 1 for bounded streams: it takes
// the union of the m polluted sub-streams, stamps each tuple with its
// sub-stream identifier, and sorts the union by delivery time (arrival),
// breaking ties by event time and then tuple ID for determinism. The
// result is the polluted output stream D^p.
func SortMerge(subs []Source) ([]Tuple, error) {
	var all []Tuple
	for i, src := range subs {
		for {
			t, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			t.SubStream = i
			all = append(all, t)
		}
	}
	SortByArrival(all)
	return all, nil
}

// SortByArrival sorts tuples by arrival, then event time, then ID. The
// sort is deterministic for any input permutation.
func SortByArrival(ts []Tuple) {
	sort.SliceStable(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		if !a.Arrival.Equal(b.Arrival) {
			return a.Arrival.Before(b.Arrival)
		}
		if !a.EventTime.Equal(b.EventTime) {
			return a.EventTime.Before(b.EventTime)
		}
		return a.ID < b.ID
	})
}

// KWayMerge merges m sub-streams that are individually sorted by arrival
// into one sorted stream without materialising everything first. It is
// the streaming-friendly alternative to SortMerge benchmarked in the
// ablation study; it is only correct when every input is arrival-sorted
// (e.g. when no delay error reorders within a sub-stream, or after a
// bounded-lateness buffer).
type KWayMerge struct {
	subs  []Source
	heads []Tuple
	live  []bool
	open  int
}

// NewKWayMerge prepares a merger over subs.
func NewKWayMerge(subs []Source) (*KWayMerge, error) {
	m := &KWayMerge{
		subs:  subs,
		heads: make([]Tuple, len(subs)),
		live:  make([]bool, len(subs)),
	}
	for i := range subs {
		if err := m.advance(i); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (m *KWayMerge) advance(i int) error {
	t, err := m.subs[i].Next()
	if err == io.EOF {
		if m.live[i] {
			m.live[i] = false
			m.open--
		}
		return nil
	}
	if err != nil {
		return err
	}
	t.SubStream = i
	if !m.live[i] {
		m.live[i] = true
		m.open++
	}
	m.heads[i] = t
	return nil
}

// Schema implements Source.
func (m *KWayMerge) Schema() *Schema { return m.subs[0].Schema() }

// Next implements Source, emitting the globally earliest head.
func (m *KWayMerge) Next() (Tuple, error) {
	if m.open == 0 {
		return Tuple{}, io.EOF
	}
	best := -1
	for i := range m.heads {
		if !m.live[i] {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		a, b := m.heads[i], m.heads[best]
		if a.Arrival.Before(b.Arrival) ||
			(a.Arrival.Equal(b.Arrival) && a.ID < b.ID) {
			best = i
		}
	}
	out := m.heads[best]
	if err := m.advance(best); err != nil {
		return Tuple{}, err
	}
	return out, nil
}

// BoundedReorder re-sorts a nearly sorted stream using a buffer of the
// given capacity, the streaming analogue of allowed lateness: a tuple may
// be displaced at most capacity-1 positions from its sorted location.
// This lets delayed-tuple pollution flow through unbounded pipelines.
//
// The buffer is a ring that grows to capacity while the window first
// fills and is never reallocated after that, so a steady-state Next
// allocates nothing.
type BoundedReorder struct {
	src  Source
	ring []Tuple // buffered tuples in order, starting at head
	head int
	n    int
	cap  int
	eof  bool
}

// NewBoundedReorder wraps src with a reordering window of capacity tuples.
func NewBoundedReorder(src Source, capacity int) *BoundedReorder {
	if capacity < 1 {
		capacity = 1
	}
	return &BoundedReorder{src: src, cap: capacity}
}

// Schema implements Source.
func (r *BoundedReorder) Schema() *Schema { return r.src.Schema() }

// Next implements Source.
func (r *BoundedReorder) Next() (Tuple, error) {
	for !r.eof && r.n < r.cap {
		t, err := r.src.Next()
		if err == io.EOF {
			r.eof = true
			break
		}
		if err != nil {
			return Tuple{}, err
		}
		r.insert(t)
	}
	if r.n == 0 {
		return Tuple{}, io.EOF
	}
	out := r.ring[r.head]
	r.ring[r.head] = Tuple{}
	r.head = r.at(1)
	r.n--
	return out, nil
}

// at maps the i-th buffered position to its ring slot.
func (r *BoundedReorder) at(i int) int {
	j := r.head + i
	if j >= len(r.ring) {
		j -= len(r.ring)
	}
	return j
}

// sortsAfter reports whether buffered tuple b sorts after t: later arrival,
// or the same arrival and a larger ID.
func sortsAfter(b, t *Tuple) bool {
	if !b.Arrival.Equal(t.Arrival) {
		return b.Arrival.After(t.Arrival)
	}
	return b.ID > t.ID
}

func (r *BoundedReorder) insert(t Tuple) {
	if r.n == len(r.ring) {
		// Grow (only while the window first fills), unrolling the ring.
		grown := make([]Tuple, min(max(2*len(r.ring), 16), r.cap))
		for i := 0; i < r.n; i++ {
			grown[i] = r.ring[r.at(i)]
		}
		r.ring, r.head = grown, 0
	}
	// The insert position is the first buffered tuple after t. Nearly
	// sorted input mostly lands at the end, so check that first.
	i := r.n
	if i > 0 && sortsAfter(&r.ring[r.at(i-1)], &t) {
		i = sort.Search(r.n, func(k int) bool { return sortsAfter(&r.ring[r.at(k)], &t) })
	}
	for k := r.n; k > i; k-- {
		r.ring[r.at(k)] = r.ring[r.at(k-1)]
	}
	r.ring[r.at(i)] = t
	r.n++
}
