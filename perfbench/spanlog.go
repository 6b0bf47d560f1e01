package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"

	"mbrim/internal/obs"
)

// spanLog keeps perfbench's own spans in memory until the run ends: one
// span per call into a layer (or per block of calls), nested under the
// phase that made it.
type spanLog struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span // span ID i is spans[i-1]
}

type span struct {
	id, parent int
	name       string
	tid        int
	start, end time.Time
}

// maxSpans bounds the log; calls beyond it are not recorded.
const maxSpans = 200000

func newSpanLog() *spanLog {
	return &spanLog{origin: time.Now()}
}

// begin opens a span now and returns its ID (0 when the log is full).
func (l *spanLog) begin(name string, parent, tid int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= maxSpans {
		return 0
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{id: id, parent: parent, name: name, tid: tid, start: time.Now()})
	return id
}

// end closes span id now (a no-op for ID 0, a span the full log dropped).
func (l *spanLog) end(id int) {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if id > 0 && l.spans[id-1].end.IsZero() {
		l.spans[id-1].end = now
	}
}

// add records a finished span measured elsewhere.
func (l *spanLog) add(name string, parent, tid int, start, end time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= maxSpans {
		return 0
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{id: id, parent: parent, name: name, tid: tid, start: start, end: end})
	return id
}

// writeChrome writes the spans as Chrome trace-event JSON (complete
// "X" slices on a wall-time axis, in microseconds), loadable in
// ui.perfetto.dev.
func (l *spanLog) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	l.mu.Lock()
	events := make([]event, 0, len(l.spans))
	for _, s := range l.spans {
		if s.end.IsZero() {
			continue
		}
		events = append(events, event{Name: s.name, Ph: "X",
			TS:  float64(s.start.Sub(l.origin).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.tid, Args: map[string]int{"span": s.id, "parent": s.parent}})
	}
	l.mu.Unlock()
	return writeFile(path, func(w *bufio.Writer) error {
		return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
	})
}

// writeEngineTrace exports an engine event stream with the repository's
// own Chrome trace writer (model-time axis).
func writeEngineTrace(path string, events []obs.Event) error {
	return writeFile(path, func(w *bufio.Writer) error { return obs.WriteChromeTrace(w, events) })
}

func writeFile(path string, fill func(w *bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := fill(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
