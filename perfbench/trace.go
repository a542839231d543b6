package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tracefile"
)

// tracer is the traced run's observability: the registry handed to every
// public call that accepts one, the Perfetto trace file, and an in-memory
// copy of every completed span for the per-layer arithmetic. A nil *tracer
// is the untraced state: spans still time their call, nothing is recorded.
type tracer struct {
	reg  *obs.Registry
	file *tracefile.Writer
	path string

	mu    sync.Mutex
	rep   int
	spans []spanRec
}

// spanRec is one completed span, tagged with the repetition it ran in.
type spanRec struct {
	name  string
	start time.Time
	dur   time.Duration
	rep   int
}

func newTracer(path string) (*tracer, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := tracefile.Create(path)
	if err != nil {
		return nil, err
	}
	t := &tracer{reg: obs.NewRegistry(), file: f, path: path, rep: -1}
	t.reg.AttachTracer(obs.TeeTracer(f, t))
	return t, nil
}

// registry returns the registry to pass to instrumented calls (nil when
// untraced).
func (t *tracer) registry() *obs.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// setRep tags the spans that follow with repetition i (-1: untimed work).
func (t *tracer) setRep(i int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rep = i
	t.mu.Unlock()
}

// span times fn. When traced, it also records a span named name in the
// registry (and so in the trace file).
func (t *tracer) span(name string, fn func()) time.Duration {
	sp := t.registry().StartSpan(name)
	start := time.Now()
	fn()
	d := time.Since(start)
	sp.End()
	return d
}

// close finishes the trace file.
func (t *tracer) close() error {
	if t == nil {
		return nil
	}
	t.reg.AttachTracer(nil)
	return t.file.Close()
}

// BeginLane, EndLane, Complete and Instant implement obs.Tracer: the
// tracer is the secondary of a tee whose primary is the trace file.
func (t *tracer) BeginLane() int32                          { return 0 }
func (t *tracer) EndLane(int32)                             {}
func (t *tracer) Instant(name, detail string, at time.Time) {}
func (t *tracer) Complete(name, detail string, start time.Time, dur time.Duration, lane int32) {
	t.mu.Lock()
	t.spans = append(t.spans, spanRec{name: name, start: start, dur: dur, rep: t.rep})
	t.mu.Unlock()
}

// spanTotal sums the spans named name in repetition rep.
func (t *tracer) spanTotal(name string, rep int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total time.Duration
	for _, s := range t.spans {
		if s.name == name && s.rep == rep {
			total += s.dur
		}
	}
	return total
}

// spanUnion is the wall-clock time covered by the union of the spans named
// name in repetition rep: concurrent spans are not double counted.
func (t *tracer) spanUnion(name string, rep int) time.Duration {
	t.mu.Lock()
	var iv [][2]time.Time
	for _, s := range t.spans {
		if s.name == name && s.rep == rep {
			iv = append(iv, [2]time.Time{s.start, s.start.Add(s.dur)})
		}
	}
	t.mu.Unlock()
	sort.Slice(iv, func(a, b int) bool { return iv[a][0].Before(iv[b][0]) })
	var total time.Duration
	var end time.Time
	for _, x := range iv {
		if x[0].After(end) {
			total += x[1].Sub(x[0])
			end = x[1]
		} else if x[1].After(end) {
			total += x[1].Sub(end)
			end = x[1]
		}
	}
	return total
}

// counter reads a registry counter (0 when untraced).
func (t *tracer) counter(name string) int64 {
	return t.registry().Counter(name).Value()
}

// layerShare is one row of the layer-share report.
type layerShare struct {
	layer string
	self  time.Duration
}

// printLayerShares writes each layer's self time as a share of the timed
// phase, plus the unattributed remainder.
func printLayerShares(w io.Writer, workload string, timed time.Duration, rows []layerShare) {
	var b strings.Builder
	fmt.Fprintf(&b, "# layer shares of the timed phase (%s, %.3f s):", workload, timed.Seconds())
	var sum time.Duration
	for _, r := range rows {
		sum += r.self
		fmt.Fprintf(&b, " %s %.1f%%", r.layer, share(r.self, timed))
	}
	fmt.Fprintf(&b, " unattributed %.1f%%", share(timed-sum, timed))
	fmt.Fprintln(w, b.String())
}

func share(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * part.Seconds() / whole.Seconds()
}
