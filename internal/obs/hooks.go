package obs

import (
	"context"
	"log/slog"
	"sync"
	"time"
)

// Event describes one completed operation, delivered to TraceHook.OpEnd.
type Event struct {
	Scheme   string        // labeling scheme of the store that ran the op
	Op       Op            // operation kind
	Start    time.Time     // when the operation began
	Duration time.Duration // wall time
	Reads    uint64        // block reads charged to this operation
	Writes   uint64        // block writes charged to this operation
	Err      error         // the operation's error, if any
	Class    string        // faults classification of Err ("transient"/"permanent"), "" on success
}

// TraceHook observes operation boundaries. Implementations must be safe
// for concurrent use and should be fast: hooks run inline on the
// operation's goroutine.
type TraceHook interface {
	// OpStart fires when an operation begins.
	OpStart(scheme string, op Op)
	// OpEnd fires when an operation completes, with its I/O delta and
	// duration.
	OpEnd(ev Event)
}

// SlogHook is a TraceHook emitting one structured log record per completed
// operation (and, optionally, per start) via log/slog.
type SlogHook struct {
	Logger *slog.Logger
	Level  slog.Level
	// LogStarts additionally emits a record at operation start.
	LogStarts bool
}

// OpStart implements TraceHook.
func (h *SlogHook) OpStart(scheme string, op Op) {
	if !h.LogStarts || !h.Logger.Enabled(context.Background(), h.Level) {
		return
	}
	h.Logger.LogAttrs(context.Background(), h.Level, "boxes.op.start",
		slog.String("scheme", scheme),
		slog.String("op", op.String()),
	)
}

// OpEnd implements TraceHook.
func (h *SlogHook) OpEnd(ev Event) {
	if !h.Logger.Enabled(context.Background(), h.Level) {
		return
	}
	attrs := []slog.Attr{
		slog.String("scheme", ev.Scheme),
		slog.String("op", ev.Op.String()),
		slog.Duration("duration", ev.Duration),
		slog.Uint64("reads", ev.Reads),
		slog.Uint64("writes", ev.Writes),
	}
	if ev.Err != nil {
		attrs = append(attrs, slog.String("error", ev.Err.Error()))
		if ev.Class != "" {
			attrs = append(attrs, slog.String("error_class", ev.Class))
		}
	}
	h.Logger.LogAttrs(context.Background(), h.Level, "boxes.op", attrs...)
}

// RingEvent is one record captured by a RingHook: either an operation
// start (Start == true, Event carries scheme and op only) or a completed
// operation with its full Event.
type RingEvent struct {
	Start bool
	Event Event
}

// RingHook is a TraceHook retaining the last N events in a ring buffer.
// It exists for tests and post-mortem inspection of recent operations.
type RingHook struct {
	mu      sync.Mutex
	buf     []RingEvent
	next    int
	wrapped bool
}

// NewRingHook creates a ring hook retaining the last n events (n < 1 is
// treated as 64).
func NewRingHook(n int) *RingHook {
	if n < 1 {
		n = 64
	}
	return &RingHook{buf: make([]RingEvent, n)}
}

func (h *RingHook) push(ev RingEvent) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.buf[h.next] = ev
	h.next++
	if h.next == len(h.buf) {
		h.next = 0
		h.wrapped = true
	}
}

// OpStart implements TraceHook.
func (h *RingHook) OpStart(scheme string, op Op) {
	h.push(RingEvent{Start: true, Event: Event{Scheme: scheme, Op: op}})
}

// OpEnd implements TraceHook.
func (h *RingHook) OpEnd(ev Event) {
	h.push(RingEvent{Event: ev})
}

// Events returns the retained events, oldest first.
func (h *RingHook) Events() []RingEvent {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.wrapped {
		out := make([]RingEvent, h.next)
		copy(out, h.buf[:h.next])
		return out
	}
	out := make([]RingEvent, 0, len(h.buf))
	out = append(out, h.buf[h.next:]...)
	out = append(out, h.buf[:h.next]...)
	return out
}

var (
	_ TraceHook = (*SlogHook)(nil)
	_ TraceHook = (*RingHook)(nil)
)
