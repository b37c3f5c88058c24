package pager

import (
	"errors"
	"sync"
	"testing"

	"boxes/internal/faults"
	"boxes/internal/obs"
)

// recordingBackend wraps a Backend and records the order of WriteBlock
// calls.
type recordingBackend struct {
	Backend
	writes []BlockID
}

func (r *recordingBackend) WriteBlock(id BlockID, buf []byte) error {
	r.writes = append(r.writes, id)
	return r.Backend.WriteBlock(id, buf)
}

func TestEndOpFlushesInSortedOrder(t *testing.T) {
	rb := &recordingBackend{Backend: NewMemBackend(512)}
	s := NewStore(rb)
	var ids []BlockID
	for i := 0; i < 8; i++ {
		id, err := s.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	buf := make([]byte, 512)
	s.BeginOp()
	// Dirty the blocks in descending order; the flush must still ascend.
	for i := len(ids) - 1; i >= 0; i-- {
		buf[0] = byte(i)
		if err := s.Write(ids[i], buf); err != nil {
			t.Fatal(err)
		}
	}
	rb.writes = nil
	if err := s.EndOp(); err != nil {
		t.Fatal(err)
	}
	if len(rb.writes) != len(ids) {
		t.Fatalf("flushed %d blocks, want %d", len(rb.writes), len(ids))
	}
	for i := 1; i < len(rb.writes); i++ {
		if rb.writes[i-1] >= rb.writes[i] {
			t.Fatalf("flush order not ascending: %v", rb.writes)
		}
	}
}

func TestCacheHitMissCounters(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewStore(NewMemBackend(512), WithCache(1), WithObserver(reg))
	id1, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	if err := s.Write(id1, buf); err != nil { // cache: {id1}
		t.Fatal(err)
	}
	if _, err := s.Read(id1); err != nil { // hit
		t.Fatal(err)
	}
	if err := s.Write(id2, buf); err != nil { // evicts id1
		t.Fatal(err)
	}
	if _, err := s.Read(id1); err != nil { // miss
		t.Fatal(err)
	}
	if hits := reg.Counter(obs.CtrPagerCacheHits); hits != 1 {
		t.Errorf("pager_cache_hits_total = %d, want 1", hits)
	}
	if misses := reg.Counter(obs.CtrPagerCacheMisses); misses != 1 {
		t.Errorf("pager_cache_misses_total = %d, want 1", misses)
	}
}

func TestInjectedFailureCounters(t *testing.T) {
	reg := obs.NewRegistry()
	sched := faults.NewSchedule(1)
	sched.SetBudget(2)
	s := NewStore(NewFaultBackend(NewMemBackend(512), sched), WithObserver(reg))
	id, err := s.Allocate() // op 1
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(id, make([]byte, 512)); err != nil { // op 2
		t.Fatal(err)
	}
	if _, err := s.Read(id); !errors.Is(err, ErrInjected) { // op 3: injected
		t.Fatalf("read err = %v, want injected", err)
	}
	if got := reg.Counter(obs.CtrPagerInjectedFailures); got != 1 {
		t.Errorf("pager_injected_failures_total = %d, want 1", got)
	}
	if got := reg.Counter(obs.CtrPagerIOErrors); got != 1 {
		t.Errorf("pager_io_errors_total = %d, want 1", got)
	}
	if sched.Injected() != 1 {
		t.Errorf("sched.Injected() = %d, want 1", sched.Injected())
	}
}

// nopBackend is an inherently concurrency-safe Backend stub, so the race
// detector only sees the fault injector's own bookkeeping.
type nopBackend struct{ size int }

func (nopBackend) Allocate() (BlockID, error)      { return 1, nil }
func (nopBackend) Free(BlockID) error              { return nil }
func (nopBackend) ReadBlock(BlockID, []byte) error { return nil }
func (nopBackend) WriteBlock(BlockID, []byte) error {
	return nil
}
func (b nopBackend) BlockSize() int  { return b.size }
func (nopBackend) NumBlocks() uint64 { return 1 }
func (nopBackend) Close() error      { return nil }

// TestFaultBackendConcurrentCharge exercises the schedule's mutex-guarded
// counters from many goroutines; run under -race this is the
// concurrency-safety regression test.
func TestFaultBackendConcurrentCharge(t *testing.T) {
	const (
		workers = 8
		perG    = 50
		budget  = 100
	)
	sched := faults.NewSchedule(1)
	sched.SetBudget(budget)
	flaky := NewFaultBackend(nopBackend{size: 512}, sched)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 512)
			for i := 0; i < perG; i++ {
				if i%2 == 0 {
					_ = flaky.WriteBlock(1, buf)
				} else {
					_ = flaky.ReadBlock(1, buf)
				}
			}
		}()
	}
	wg.Wait()
	wantOps := workers * perG
	if sched.Ops() != wantOps {
		t.Errorf("ops = %d, want %d (lost updates)", sched.Ops(), wantOps)
	}
	if want := wantOps - budget; sched.Injected() != want {
		t.Errorf("injected = %d, want %d", sched.Injected(), want)
	}
}
