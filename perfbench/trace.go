package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rankcube"
)

// spanLog keeps the traced run's spans in memory and writes them out when
// the run ends. Each op is one request: the benchmark's client span around
// the public call is its root, and the library's trace (WithTrace) hangs
// below it. The library exposes no span start times, so only client spans
// carry one.
type spanLog struct {
	origin time.Time

	mu    sync.Mutex
	req   int64
	spans []spanRec
}

type spanRec struct {
	Req     int64   `json:"req"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // -1 for the client span
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us,omitempty"`
	DurUS   float64 `json:"dur_us"`
	SelfUS  float64 `json:"self_us"`
	Reads   int64   `json:"reads,omitempty"`
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// selfTime is a span's duration minus the part its children cover.
// Children run one after another inside their parent, so they cover the
// sum of their durations.
func selfTime(s *rankcube.Span) time.Duration {
	var covered time.Duration
	for _, c := range s.Children {
		covered += c.Dur
	}
	return max(0, s.Dur-covered)
}

func (l *spanLog) add(kind opKind, start time.Time, client time.Duration, tr *rankcube.Trace) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.req++
	self := client
	var root *rankcube.Span
	if tr != nil {
		root = tr.Root()
	}
	if root != nil {
		self = max(0, client-root.Dur)
	}
	l.spans = append(l.spans, spanRec{
		Req: l.req, ID: 0, Parent: -1, Name: "client." + kind.String(),
		StartUS: us(start.Sub(l.origin)), DurUS: us(client), SelfUS: us(self),
	})
	if root == nil {
		return
	}
	id := 0
	var walk func(s *rankcube.Span, parent int)
	walk = func(s *rankcube.Span, parent int) {
		id++
		me := id
		var reads int64
		for _, n := range s.Reads {
			reads += n
		}
		l.spans = append(l.spans, spanRec{
			Req: l.req, ID: me, Parent: parent, Name: s.Name,
			DurUS: us(s.Dur), SelfUS: us(selfTime(s)), Reads: reads,
		})
		for _, c := range s.Children {
			walk(c, me)
		}
	}
	walk(root, 0)
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
