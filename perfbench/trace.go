package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call in the traced pass. Spans live in memory until the
// run ends and are then written out, one JSON object per line.
//
// An op span times one statement as the client saw it. Its layer spans are
// replays: after the statement returns, outside its timed interval, the
// harness feeds the statement's inputs through the layers' exported
// functions. A replay stands in for work done inside its parent, so a span's
// self time is its duration minus the durations of its replay children.
// Follow-up spans (Replay false) were caused by the parent — a Stats()
// recompute after a write — but are not part of it and are not subtracted.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for an op span
	Op     int    `json:"op"`     // id of the op span of the same request
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the start of the traced pass
	End    int64  `json:"end_ns"`
	Rows   int64  `json:"rows"`
	Bytes  int64  `json:"bytes,omitempty"`
	Allocs int64  `json:"allocs"`
	Replay bool   `json:"replay"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans. It is safe for concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span with known start and end and returns its id.
func (t *tracer) add(parent int, name string, start, end time.Time, rows int64, replay bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	op := id
	if parent != 0 {
		op = t.spans[parent-1].Op
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
		Rows: rows, Replay: replay,
	})
	return id
}

// call times fn as a replay span under parent. fn returns the rows (and, for
// the codec, bytes) it handled. Allocations are counted around fn, outside
// the timed interval.
func (t *tracer) call(parent int, name string, fn func() (rows, bytes int64, err error)) (int, error) {
	return t.timed(parent, name, true, fn)
}

// follow times fn as a follow-up span caused by parent.
func (t *tracer) follow(parent int, name string, fn func() (rows, bytes int64, err error)) (int, error) {
	return t.timed(parent, name, false, fn)
}

func (t *tracer) timed(parent int, name string, replay bool, fn func() (int64, int64, error)) (int, error) {
	// runtime.ReadMemStats stops the world; it is read outside the timed
	// interval, and only here in the traced pass.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	rows, bytes, err := fn()
	end := time.Now()
	runtime.ReadMemStats(&after)
	allocs := int64(after.Mallocs - before.Mallocs)
	id := t.add(parent, name, start, end, rows, replay)
	t.mu.Lock()
	t.spans[id-1].Allocs = allocs
	t.spans[id-1].Bytes = bytes
	t.mu.Unlock()
	if err != nil {
		return id, fmt.Errorf("%s: %w", name, err)
	}
	return id, nil
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes maps span id to its self time: its duration minus the durations
// of its replay children, never below zero.
func selfTimes(spans []span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	for i := range spans {
		self[spans[i].ID] += spans[i].dur()
	}
	for i := range spans {
		if s := &spans[i]; s.Replay && s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	for id, d := range self {
		if d < 0 {
			self[id] = 0
		}
	}
	return self
}

// layerRow aggregates the spans of one name.
type layerRow struct {
	Name   string
	Calls  int
	Total  time.Duration
	Self   time.Duration
	Rows   int64
	Bytes  int64
	Allocs int64
}

// summarize aggregates spans by name, sorted by self time.
func summarize(spans []span) []layerRow {
	self := selfTimes(spans)
	by := map[string]*layerRow{}
	for i := range spans {
		s := &spans[i]
		row := by[s.Name]
		if row == nil {
			row = &layerRow{Name: s.Name}
			by[s.Name] = row
		}
		row.Calls++
		row.Total += s.dur()
		row.Self += self[s.ID]
		row.Rows += s.Rows
		row.Bytes += s.Bytes
		row.Allocs += s.Allocs
	}
	out := make([]layerRow, 0, len(by))
	for _, r := range by {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func writeSummary(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-34s %8s %12s %12s %12s %12s\n", "span", "calls", "total_ms", "self_ms", "rows", "allocs")
	for _, r := range rows {
		fmt.Fprintf(w, "%-34s %8d %12.3f %12.3f %12d %12d\n", r.Name, r.Calls,
			float64(r.Total)/1e6, float64(r.Self)/1e6, r.Rows, r.Allocs)
	}
}

// dumpSpans writes every span, one JSON object per line, to path.
func dumpSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStats answers per-layer questions over a set of spans.
type spanStats struct {
	rows map[string]*layerRow
}

func newSpanStats(spans []span) spanStats {
	st := spanStats{rows: map[string]*layerRow{}}
	for _, r := range summarize(spans) {
		st.rows[r.Name] = &r
	}
	return st
}

// sum adds up the named rows.
func (st spanStats) sum(names ...string) layerRow {
	var out layerRow
	for _, n := range names {
		if r := st.rows[n]; r != nil {
			out.Calls += r.Calls
			out.Total += r.Total
			out.Self += r.Self
			out.Rows += r.Rows
			out.Bytes += r.Bytes
			out.Allocs += r.Allocs
		}
	}
	return out
}

// div is a/b, or 0 when nothing was counted.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
