package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"
)

// span is one call into a layer, recorded by the traced replay.
type span struct {
	name   string
	trace  int32 // spans of one frame, patch, epoch or playlist push share it
	parent int32 // index of the enclosing span, -1 for a root
	start  time.Duration
	end    time.Duration
	allocs int64 // heap allocations during the call; alloc mode only
}

// tracerMode selects what a replay records around each call.
type tracerMode int

const (
	// modeOff records nothing: the replay's untraced baseline.
	modeOff tracerMode = iota
	// modeSpans records a span per call.
	modeSpans
	// modeAllocs counts heap allocations around the first allocSampleCalls
	// calls of each name. runtime.ReadMemStats stops the world, so this
	// mode's wall times are meaningless and it keeps none.
	modeAllocs
)

// allocSampleCalls bounds how many calls per span name the alloc pass
// brackets with ReadMemStats.
const allocSampleCalls = 48

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine: calls the layers make on their own goroutines are covered by
// the span of the call that spawned them.
type tracer struct {
	mode  tracerMode
	t0    time.Time
	spans []span
	stack []int32
	trace int32
	// values holds per-call quantities (bytes, fragments) by name.
	values map[string][]float64
	// limit, when positive, ends the replay after that many traces.
	limit int

	calls   map[string]int
	ms      runtime.MemStats
	mallocs []uint64 // alloc mode: Mallocs at each open span's begin
}

func newTracer(mode tracerMode) *tracer {
	return &tracer{mode: mode, t0: now(), values: map[string][]float64{}, calls: map[string]int{}}
}

// newTrace starts a new trace id for the spans that follow.
func (t *tracer) newTrace() { t.trace++ }

// done reports whether the replay has recorded as many traces as the
// tracer's limit asks for.
func (t *tracer) done() bool { return t.limit > 0 && int(t.trace) >= t.limit }

// count records one per-call quantity.
func (t *tracer) count(name string, v float64) {
	if t.mode == modeSpans {
		t.values[name] = append(t.values[name], v)
	}
}

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string) int32 {
	switch t.mode {
	case modeSpans:
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1]
		}
		id := int32(len(t.spans))
		t.spans = append(t.spans, span{name: name, trace: t.trace, parent: parent, start: since(t.t0)})
		t.stack = append(t.stack, id)
		return id
	case modeAllocs:
		t.calls[name]++
		if t.calls[name] > allocSampleCalls {
			return -1
		}
		id := int32(len(t.spans))
		t.spans = append(t.spans, span{name: name, trace: t.trace, parent: -1})
		runtime.ReadMemStats(&t.ms)
		t.mallocs = append(t.mallocs, t.ms.Mallocs)
		t.stack = append(t.stack, id)
		return id
	case modeOff:
		// The untraced baseline records nothing.
	}
	return -1
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	switch t.mode {
	case modeSpans:
		t.spans[id].end = since(t.t0)
	case modeAllocs:
		runtime.ReadMemStats(&t.ms)
		n := len(t.mallocs) - 1
		t.spans[id].allocs = int64(t.ms.Mallocs - t.mallocs[n])
		t.mallocs = t.mallocs[:n]
	case modeOff:
	}
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes returns each span name's self times: a span's duration minus
// the part of it its child spans cover. Children of one span never overlap
// (the replay is sequential), so subtracting their durations is exact.
func (t *tracer) selfTimes() map[string][]float64 {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string][]float64{}
	for i, s := range t.spans {
		self := s.end - s.start - child[i]
		out[s.name] = append(out[s.name], float64(self)/float64(time.Microsecond))
	}
	return out
}

// allocCounts returns each sampled span name's per-call allocation counts.
func (t *tracer) allocCounts() map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range t.spans {
		out[s.name] = append(out[s.name], float64(s.allocs))
	}
	return out
}

// writeTraceEvents writes the spans as Chrome trace-event JSON (one
// complete event per span, one thread row per trace id), readable by
// Perfetto or chrome://tracing.
func writeTraceEvents(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int32          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	for i, s := range spans {
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		ev := event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.trace,
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: map[string]any{"span": i, "parent": s.parent},
		}
		if err := enc.Encode(ev); err != nil {
			return fmt.Errorf("trace event %d: %w", i, err)
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}
