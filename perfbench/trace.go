package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"spca"
)

// span is one recorded wall-clock span. Op groups the spans of one timed
// operation. ID 0 is the benchmark's own span around the operation; the
// engines' spans keep the IDs their tracer gave them, so an engine root span
// (Parent 0) hangs under the operation span.
type span struct {
	Op     int     `json:"op"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Start  float64 `json:"start_ms"` // since the timed window opened
	End    float64 `json:"end_ms"`
	// Instant marks the engines' phase and driver spans. The engines emit
	// them back to back (SpanStart then SpanEnd at once), so they carry
	// structure but no wall time.
	Instant bool `json:"instant,omitempty"`
}

// spanLog keeps a traced run's spans in memory until the run ends.
type spanLog struct {
	origin time.Time
	spans  []span
	open   map[[2]int]int // (op, span ID) -> index into spans
}

func newSpanLog(origin time.Time) *spanLog {
	return &spanLog{origin: origin, open: map[[2]int]int{}}
}

func (l *spanLog) at(t time.Time) float64 { return ms(t.Sub(l.origin)) }

// add records a complete span measured by the benchmark itself.
func (l *spanLog) add(op int, name, kind string, start, end time.Time) {
	l.spans = append(l.spans, span{Op: op, Parent: -1, Name: name, Kind: kind, Start: l.at(start), End: l.at(end)})
}

// observer returns a spca.Observer that stamps wall-clock time on the spans
// one fit opens with Begin/End. Callbacks fire on the fit's goroutine.
func (l *spanLog) observer(op int) spca.Observer { return &wallObserver{log: l, op: op} }

type wallObserver struct {
	log *spanLog
	op  int
}

func (w *wallObserver) SpanStart(s spca.Span) {
	l := w.log
	l.open[[2]int{w.op, s.ID}] = len(l.spans)
	now := l.at(time.Now())
	l.spans = append(l.spans, span{Op: w.op, ID: s.ID, Parent: s.Parent, Name: s.Name, Kind: string(s.Kind), Start: now, End: now})
}

func (w *wallObserver) SpanEnd(s spca.Span) {
	l := w.log
	key := [2]int{w.op, s.ID}
	i, ok := l.open[key]
	if !ok {
		return
	}
	delete(l.open, key)
	if s.Kind == spca.KindPhase || s.Kind == spca.KindDriver {
		l.spans[i].Instant = true
		return
	}
	l.spans[i].End = l.at(time.Now())
}

func (*wallObserver) Event(spca.TraceEvent)             {}
func (*wallObserver) IterationDone(spca.TraceIteration) {}

// write stores the spans as JSON lines at path.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// instants counts the spans recorded without wall time.
func (l *spanLog) instants() int {
	n := 0
	for _, s := range l.spans {
		if s.Instant {
			n++
		}
	}
	return n
}
