package serve

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"boxes/internal/obs"
)

// rpcPhase partitions one request's server-side wall time. queue is the
// wait in the admission queue before the batcher picked the op up, apply
// is ApplyBatch including its WAL commit and fsync (the ack cannot precede
// it), respond is the response frame write.
type rpcPhase int

const (
	phaseQueue rpcPhase = iota
	phaseApply
	phaseRespond
	numRPCPhases
)

func (p rpcPhase) String() string {
	switch p {
	case phaseQueue:
		return "queue"
	case phaseApply:
		return "apply"
	case phaseRespond:
		return "respond"
	}
	return "unknown"
}

// Metrics aggregates the server's robustness counters and per-RPC phase
// latency histograms. All methods are safe for concurrent use and
// nil-receiver-safe (an unmetered server costs only nil checks).
type Metrics struct {
	ConnsAccepted atomic.Uint64
	ConnsActive   atomic.Int64
	Requests      atomic.Uint64
	Shed          atomic.Uint64 // overload rejections
	Deadline      atomic.Uint64 // requests expired while queued
	Drained       atomic.Uint64 // requests rejected while draining
	BadFrames     atomic.Uint64 // CRC/framing violations (conns dropped)
	Sessions      atomic.Int64
	DrainNanos    atomic.Int64 // duration of the last graceful drain

	queueDepth func() int // live admission-queue depth, set by the server

	mu     sync.Mutex
	phases map[string]*[numRPCPhases]*obs.DurHist // per-opcode phase rows
}

// NewMetrics returns an empty metrics bundle.
func NewMetrics() *Metrics {
	return &Metrics{phases: make(map[string]*[numRPCPhases]*obs.DurHist)}
}

// observePhase records d under the op's phase histogram row.
func (m *Metrics) observePhase(op string, p rpcPhase, d time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	row := m.phases[op]
	if row == nil {
		row = new([numRPCPhases]*obs.DurHist)
		for i := range row {
			row[i] = obs.NewDurHist()
		}
		m.phases[op] = row
	}
	m.mu.Unlock()
	row[p].Observe(d)
}

// PhaseSnapshot returns the phase histogram for one opcode row, or zero
// snapshots when the row has no observations yet.
func (m *Metrics) PhaseSnapshot(op string) [numRPCPhases]obs.HistSnapshot {
	var out [numRPCPhases]obs.HistSnapshot
	if m == nil {
		return out
	}
	m.mu.Lock()
	row := m.phases[op]
	m.mu.Unlock()
	if row == nil {
		return out
	}
	for i := range row {
		out[i] = row[i].Snapshot()
	}
	return out
}

// CollectGauges implements obs.Collector: the server's health gauges,
// scraped through the store registry's /metrics endpoint.
func (m *Metrics) CollectGauges() []obs.GaugeValue {
	if m == nil {
		return nil
	}
	gs := []obs.GaugeValue{
		obs.G("serve_conns_accepted", "Connections accepted since start.", float64(m.ConnsAccepted.Load())),
		obs.G("serve_conns_active", "Connections currently open.", float64(m.ConnsActive.Load())),
		obs.G("serve_requests_total", "Requests decoded (all opcodes).", float64(m.Requests.Load())),
		obs.G("serve_shed_total", "Write requests shed with an overload status (queue full).", float64(m.Shed.Load())),
		obs.G("serve_deadline_expired_total", "Write requests whose deadline expired while queued.", float64(m.Deadline.Load())),
		obs.G("serve_drain_rejected_total", "Requests rejected because the server was draining.", float64(m.Drained.Load())),
		obs.G("serve_bad_frames_total", "Frames dropped for CRC or framing violations.", float64(m.BadFrames.Load())),
		obs.G("serve_sessions", "Live sessions in the dedup table.", float64(m.Sessions.Load())),
	}
	if qd := m.queueDepth; qd != nil {
		gs = append(gs, obs.G("serve_queue_depth", "Write requests waiting in the admission queue.", float64(qd())))
	}
	if d := m.DrainNanos.Load(); d > 0 {
		gs = append(gs, obs.G("serve_drain_seconds", "Duration of the last graceful drain.", time.Duration(d).Seconds()))
	}
	m.mu.Lock()
	ops := make([]string, 0, len(m.phases))
	for op := range m.phases {
		ops = append(ops, op)
	}
	m.mu.Unlock()
	for _, op := range ops {
		snap := m.PhaseSnapshot(op)
		for p, h := range snap {
			if h.Total() == 0 {
				continue
			}
			// Op names use '-' (delete-element); metric names must not.
			name := "serve_rpc_" + strings.ReplaceAll(op, "-", "_") + "_" + rpcPhase(p).String()
			gs = append(gs,
				obs.G(name+"_count", "Requests observed in this RPC phase row.", float64(h.Total())),
				obs.G(name+"_p50_seconds", "Median latency of this RPC phase.", time.Duration(h.Quantile(0.50)).Seconds()),
				obs.G(name+"_p99_seconds", "99th percentile latency of this RPC phase.", time.Duration(h.Quantile(0.99)).Seconds()),
			)
		}
	}
	return gs
}
