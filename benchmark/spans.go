package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one benchmark-side interval around a call into the layers. The
// spans of one repeat share Workload and Repeat; Parent is the ID of the
// enclosing span (0 for a root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload,omitempty"`
	Repeat   int    `json:"repeat"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// spanLog keeps every span in memory until the run ends. It is used from
// the driver goroutine only.
type spanLog struct {
	t0    time.Time
	spans []span
}

// newSpanLog sizes the log up front so that recording a span inside a
// measured section never grows the slice there.
func newSpanLog(capacity int) *spanLog {
	return &spanLog{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (l *spanLog) begin(name string, parent int, workload string, repeat int) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name,
		Workload: workload, Repeat: repeat, StartNS: int64(time.Since(l.t0))})
	return id
}

// end closes the span and returns its duration.
func (l *spanLog) end(id int) time.Duration {
	s := &l.spans[id-1]
	s.EndNS = int64(time.Since(l.t0))
	return time.Duration(s.EndNS - s.StartNS)
}

// child opens a span under parent, inheriting its workload and repeat.
func (l *spanLog) child(name string, parent int) int {
	p := l.spans[parent-1]
	return l.begin(name, parent, p.Workload, p.Repeat)
}

func (l *spanLog) write(path string) error {
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// summary totals span time by name: count and total seconds.
func (l *spanLog) summary() map[string]spanTotal {
	out := make(map[string]spanTotal)
	for _, s := range l.spans {
		t := out[s.Name]
		t.Count++
		t.Seconds += float64(s.EndNS-s.StartNS) / 1e9
		out[s.Name] = t
	}
	return out
}

type spanTotal struct {
	Count   int     `json:"count"`
	Seconds float64 `json:"seconds"`
}
