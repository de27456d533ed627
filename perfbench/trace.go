package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded
// from the benchmark's side of the call. Parent is the id of the span
// that caused it (0 for a root); Req ties the spans of one request or
// one evaluation pass together. Attrs carries counts measured at the
// same boundary.
type span struct {
	ID      int64              `json:"id"`
	Parent  int64              `json:"parent,omitempty"`
	Name    string             `json:"name"`
	Req     string             `json:"req,omitempty"`
	StartNS int64              `json:"start_ns"`
	EndNS   int64              `json:"end_ns"`
	Attrs   map[string]float64 `json:"attrs,omitempty"`
}

// spans keeps every span of a traced run in memory; it is written out
// as JSONL when the run ends. A nil *spans is the untraced run: every
// method is a no-op, so the untraced path pays one nil check per call.
type spans struct {
	t0   time.Time
	mu   sync.Mutex
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// start opens a span and returns its id.
func (s *spans) start(name, req string, parent int64) int64 {
	if s == nil {
		return 0
	}
	now := time.Since(s.t0).Nanoseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	id := int64(len(s.list) + 1)
	s.list = append(s.list, span{ID: id, Parent: parent, Name: name, Req: req, StartNS: now})
	return id
}

// end closes span id and attaches attrs (which may be nil).
func (s *spans) end(id int64, attrs map[string]float64) {
	if s == nil || id == 0 {
		return
	}
	now := time.Since(s.t0).Nanoseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := &s.list[id-1]
	sp.EndNS = now
	sp.Attrs = attrs
}

// add records an already-measured span (a phase timed elsewhere,
// such as a daemon flight record) from its start time and duration.
func (s *spans) add(name, req string, parent int64, start time.Time, dur time.Duration, attrs map[string]float64) int64 {
	if s == nil {
		return 0
	}
	st := start.Sub(s.t0).Nanoseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	id := int64(len(s.list) + 1)
	s.list = append(s.list, span{ID: id, Parent: parent, Name: name, Req: req, StartNS: st, EndNS: st + dur.Nanoseconds(), Attrs: attrs})
	return id
}

// selfMS returns, per span name, every span's self time in ms: its
// duration minus the time its child spans cover. Children of one
// span never overlap in this benchmark (each layer call is
// synchronous), so the covered time is the sum of their durations.
func (s *spans) selfMS() map[string][]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	child := make([]int64, len(s.list)+1)
	for _, sp := range s.list {
		if sp.Parent > 0 {
			child[sp.Parent] += sp.EndNS - sp.StartNS
		}
	}
	out := map[string][]float64{}
	for _, sp := range s.list {
		self := sp.EndNS - sp.StartNS - child[sp.ID]
		out[sp.Name] = append(out[sp.Name], float64(self)/1e6)
	}
	return out
}

// attr collects one attribute across every span of the given name.
func (s *spans) attr(name, key string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []float64
	for _, sp := range s.list {
		if v, ok := sp.Attrs[key]; ok && sp.Name == name {
			out = append(out, v)
		}
	}
	return out
}

// writeJSONL writes every span, one JSON object per line.
func (s *spans) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	s.mu.Lock()
	for i := range s.list {
		if err := enc.Encode(&s.list[i]); err != nil {
			s.mu.Unlock()
			f.Close()
			return err
		}
	}
	s.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
