package faults

import (
	"math/rand"
	"sync"
)

// Op is the kind of backend operation a fault decision applies to.
type Op int

const (
	OpRead Op = iota
	OpWrite
	OpAllocate
	OpFree
	numOps
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpAllocate:
		return "allocate"
	case OpFree:
		return "free"
	default:
		return "op?"
	}
}

// Mode is how an injected fault behaves.
type Mode int

const (
	// ModeTransient faults clear on retry (classified Transient).
	ModeTransient Mode = iota
	// ModePermanent faults persist for the failing call but the device
	// keeps answering (classified Permanent).
	ModePermanent
	// ModeCrash kills the device: the failing operation and every
	// operation after it fail, reads included, until reopen.
	ModeCrash
	// ModeNoSpace fails a write with ErrNoSpace: the device is full but
	// healthy, so the op aborts cleanly and later ops may succeed.
	ModeNoSpace
)

func (m Mode) String() string {
	switch m {
	case ModeTransient:
		return "transient"
	case ModePermanent:
		return "permanent"
	case ModeCrash:
		return "crash"
	case ModeNoSpace:
		return "nospace"
	default:
		return "mode?"
	}
}

// Decision is an Injector's verdict for one operation.
type Decision struct {
	Fail bool
	Mode Mode
	// Torn marks a crashing write that persists a torn half-block image
	// before dying (only meaningful with Fail && Mode == ModeCrash on
	// OpWrite).
	Torn bool
}

// Injector decides, per operation, whether a fault fires. Implementations
// must be safe for concurrent use; Schedule is the standard one.
type Injector interface {
	Decide(op Op) Decision
}

// Schedule is the one deterministic, seeded fault engine behind the
// pager's Backend-level injector (pager.FaultBackend) and the serve
// layer's connection-level one (serve.NewFaultConn). It composes every
// injection shape — a success budget that then fails permanently, an armed
// burst of transient faults, a power cut at the n-th write (optionally
// torn), a fault every k-th operation, and seeded random faults — under
// one precedence order, so fault schedules replay exactly.
//
// Decision precedence: dead device > armed transient burst > crash point >
// every-k-th > random > exhausted budget.
type Schedule struct {
	mu  sync.Mutex
	rng *rand.Rand

	budget   int // ops that succeed before permanent failure; < 0 = unlimited
	failNext int // burst: fail this many ops transiently, then heal

	crashAtWrite int // 1-based write that cuts power; 0 = never
	crashTorn    bool

	everyK    int // every k-th eligible op fails; 0 = off
	everyMode Mode
	everyOps  [numOps]bool
	matched   int // eligible ops seen by the every-k-th rule

	prob     float64 // per-eligible-op fault probability; 0 = off
	probMode Mode
	probOps  [numOps]bool

	ops      int // total operations decided (while alive)
	writes   int // write operations decided (while alive)
	injected int // faults fired, the dead-device tail excluded
	dead     bool
}

// NewSchedule returns an empty schedule (no faults) with a deterministic
// jitter stream seeded by seed (0 means 1).
func NewSchedule(seed int64) *Schedule {
	if seed == 0 {
		seed = 1
	}
	return &Schedule{rng: rand.New(rand.NewSource(seed)), budget: -1}
}

// SetBudget allows n operations to succeed before every further one fails
// permanently (a device that dies and stays dead, but keeps answering).
// Negative n removes the budget.
func (s *Schedule) SetBudget(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.budget = n
}

// ArmFailNext makes the next n operations fail transiently, after which
// the device heals.
func (s *Schedule) ArmFailNext(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failNext = n
}

// Armed reports how many transient burst failures remain armed.
func (s *Schedule) Armed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failNext
}

// CrashAtWrite cuts power at the n-th write (1-based; 0 disables). With
// torn set, the fatal write is marked torn so the backend persists a
// half-written image first.
func (s *Schedule) CrashAtWrite(n int, torn bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashAtWrite = n
	s.crashTorn = torn
}

// FailEveryKth fires a fault of the given mode on every k-th eligible
// operation (k <= 0 disables). ops restricts eligibility; none means all.
func (s *Schedule) FailEveryKth(k int, mode Mode, ops ...Op) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.everyK = k
	s.everyMode = mode
	s.everyOps = opMask(ops)
	s.matched = 0
}

// FailWithProbability fires a fault of the given mode on each eligible
// operation with probability p, drawn from the schedule's seeded stream.
// ops restricts eligibility; none means all.
func (s *Schedule) FailWithProbability(p float64, mode Mode, ops ...Op) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.prob = p
	s.probMode = mode
	s.probOps = opMask(ops)
}

func opMask(ops []Op) [numOps]bool {
	var m [numOps]bool
	if len(ops) == 0 {
		for i := range m {
			m[i] = true
		}
		return m
	}
	for _, o := range ops {
		if o >= 0 && o < numOps {
			m[o] = true
		}
	}
	return m
}

// Ops reports the operations decided while the device was alive.
func (s *Schedule) Ops() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ops
}

// Writes reports the write operations decided while the device was alive.
func (s *Schedule) Writes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writes
}

// Injected reports the faults fired so far (the dead-device tail, where
// every operation fails, is not counted).
func (s *Schedule) Injected() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.injected
}

// Dead reports whether a crash point has fired.
func (s *Schedule) Dead() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dead
}

// Decide implements Injector.
func (s *Schedule) Decide(op Op) Decision {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return Decision{Fail: true, Mode: ModeCrash}
	}
	s.ops++
	if op == OpWrite {
		s.writes++
	}
	if s.failNext > 0 {
		s.failNext--
		s.injected++
		return Decision{Fail: true, Mode: ModeTransient}
	}
	if s.crashAtWrite > 0 && op == OpWrite && s.writes == s.crashAtWrite {
		s.dead = true
		s.injected++
		return Decision{Fail: true, Mode: ModeCrash, Torn: s.crashTorn}
	}
	if s.everyK > 0 && s.everyOps[op] {
		s.matched++
		if s.matched%s.everyK == 0 {
			s.injected++
			return Decision{Fail: true, Mode: s.everyMode}
		}
	}
	if s.prob > 0 && s.probOps[op] && s.rng.Float64() < s.prob {
		s.injected++
		return Decision{Fail: true, Mode: s.probMode}
	}
	if s.budget >= 0 && s.ops > s.budget {
		s.injected++
		return Decision{Fail: true, Mode: ModePermanent}
	}
	return Decision{}
}
