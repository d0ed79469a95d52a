package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// spanLog is the traced run's span recorder. Each span covers one call
// the benchmark makes into a layer: its name ("rpc.Status",
// "etcd.Put", ...), wall start and end, the span that caused it, and the
// request it belongs to (a job ID, a request number, a scenario). Spans
// stay in memory and are written out when the run ends. A nil *spanLog
// records nothing, which is how untraced runs use it.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
}

type spanRec struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Req     string  `json:"req,omitempty"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	Err     bool    `json:"err,omitempty"`
}

func newSpanLog() *spanLog { return &spanLog{t0: wallNow()} }

// begin opens a span and returns its ID (0 on a nil log).
func (l *spanLog) begin(name, req string, parent int) int {
	if l == nil {
		return 0
	}
	start := float64(wallSince(l.t0).Nanoseconds()) / 1e3
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, spanRec{ID: id, Parent: parent, Req: req, Name: name, StartUS: start, EndUS: -1})
	return id
}

// end closes span id.
func (l *spanLog) end(id int, err error) {
	if l == nil || id == 0 {
		return
	}
	end := float64(wallSince(l.t0).Nanoseconds()) / 1e3
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.spans[id-1]
	s.EndUS = end
	s.Err = err != nil
}

// timed runs f inside a span.
func (l *spanLog) timed(name, req string, parent int, f func() error) error {
	id := l.begin(name, req, parent)
	err := f()
	l.end(id, err)
	return err
}

func (l *spanLog) len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// durationsUS returns the wall durations, in microseconds, of every
// closed span whose name starts with prefix.
func (l *spanLog) durationsUS(prefix string) *sampleSet {
	var s sampleSet
	if l == nil {
		return &s
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, sp := range l.spans {
		if sp.EndUS >= 0 && strings.HasPrefix(sp.Name, prefix) {
			s.add(sp.EndUS - sp.StartUS)
		}
	}
	return &s
}

// writeFile dumps every span as one JSON object per line.
func (l *spanLog) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, sp := range l.spans {
		if err := enc.Encode(sp); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
