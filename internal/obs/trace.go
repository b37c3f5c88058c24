package obs

import (
	"encoding/json"
	"io"
	"time"
)

// chromeEvent is one record of the Chrome trace-event JSON format (the
// "JSON Array Format" both chrome://tracing and Perfetto load).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int32          `json:"tid"`
	Ts   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders the tracer's recorded spans as Chrome
// trace-event JSON, loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. Each lane becomes one named thread, so the writer and
// the per-reader goroutines render as parallel tracks; a batch's op spans
// and its one fsync nest under the batch span on the writer lane.
// Timestamps are microseconds relative to the earliest recorded span.
func WriteChromeTrace(w io.Writer, t *Tracer) error {
	spans := t.Spans()
	lanes := t.Lanes()
	events := make([]chromeEvent, 0, len(spans)+len(lanes))
	for i, name := range lanes {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: int32(i),
			Args: map[string]any{"name": name},
		})
	}
	var t0 time.Time
	for _, sp := range spans {
		if t0.IsZero() || sp.Start.Before(t0) {
			t0 = sp.Start
		}
	}
	for _, sp := range spans {
		args := map[string]any{"id": sp.ID}
		if sp.Parent != 0 {
			args["parent"] = sp.Parent
		}
		if sp.Scheme != "" {
			args["scheme"] = sp.Scheme
		}
		if sp.N != 0 {
			args["n"] = sp.N
		}
		if sp.Err != "" {
			args["error"] = sp.Err
		}
		events = append(events, chromeEvent{
			Name: sp.Name, Ph: "X", Pid: 1, Tid: sp.Lane,
			Ts:   float64(sp.Start.Sub(t0)) / float64(time.Microsecond),
			Dur:  float64(sp.Dur) / float64(time.Microsecond),
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}
