package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer, or an
// operation enclosing such calls. Times are nanoseconds on the process's
// monotonic clock, relative to the tracer's start.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Rows is the number of rows the call processed, for per-row rates.
	Rows int `json:"rows,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
// It is used from one goroutine.
type tracer struct {
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span under parent (0 for a root) and returns its ID.
func (t *tracer) begin(parent int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: t.now()})
	return len(t.spans)
}

// end closes span id, recording rows.
func (t *tracer) end(id, rows int) {
	s := &t.spans[id-1]
	s.End = t.now()
	s.Rows = rows
}

// call runs f inside a span under parent, recording rows.
func (t *tracer) call(parent int, name string, rows int, f func()) {
	id := t.begin(parent, name)
	f()
	t.end(id, rows)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (overlapping children count
// once, and child time outside the parent's interval is ignored).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered measures the union of the children's intervals clipped to
// parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerTimePerOp returns, for every root span named op, the summed self
// time of the layer spans beneath it (its descendants), in nanoseconds.
func layerTimePerOp(spans []span, op string) []float64 {
	self := selfTimes(spans)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	rootOf := func(s span) int {
		for s.Parent != 0 {
			s = byID[s.Parent]
		}
		return s.ID
	}
	sums := make(map[int]float64)
	var order []int
	for _, s := range spans {
		if s.Parent == 0 && s.Name == op {
			sums[s.ID] = 0
			order = append(order, s.ID)
		}
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		if r := rootOf(s); byID[r].Name == op {
			sums[r] += float64(self[s.ID])
		}
	}
	out := make([]float64, 0, len(order))
	for _, id := range order {
		out = append(out, sums[id])
	}
	return out
}

// residualShare is the share of a client-observed latency that no
// traced layer accounts for: 1 − layer self time ÷ client latency. It
// goes negative when the layers, replayed in isolation, take longer
// than the client saw.
func residualShare(layerNs, clientMs float64) float64 {
	if clientMs <= 0 {
		return 0
	}
	return 1 - layerNs/(clientMs*1e6)
}

// durations returns the durations in nanoseconds of every span named
// name; with perRow set, each divided by the span's rows.
func durations(spans []span, name string, perRow bool) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		d := float64(s.dur())
		if perRow {
			if s.Rows == 0 {
				continue
			}
			d /= float64(s.Rows)
		}
		out = append(out, d)
	}
	return out
}
