package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"boxes/internal/order"
)

// The graceful-drain contract under concurrent load (run with -race):
// clients hammer inserts while the server is told to drain mid-batch;
// every op acknowledged before or during the drain must be present in the
// store afterwards (zero acked-op loss), the drain must finish within its
// hard deadline, and the store must shut down cleanly (store Close
// succeeds, invariants hold).
func TestDrainUnderConcurrentLoad(t *testing.T) {
	env := startEnv(t, envOptions{batchMax: 8})
	ctx := context.Background()

	setup, err := Dial(env.addr, ClientOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	root, err := setup.InsertFirst(ctx)
	if err != nil {
		t.Fatal(err)
	}
	setup.Close()

	const workers = 6
	var (
		wg    sync.WaitGroup
		ackMu sync.Mutex
		acked []order.ElemLIDs
	)
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(env.addr, ClientOptions{Timeout: 5 * time.Second})
			if err != nil {
				return // drain may already have closed the listener
			}
			defer c.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e, err := c.Insert(context.Background(), root.End)
				if err != nil {
					// Any failure during a drain means the op was NOT
					// acknowledged; it must simply be atomic, which the
					// sweep checks. Here we only track acks.
					if errors.Is(err, ErrDraining) || loadStop(err) {
						return
					}
					return
				}
				ackMu.Lock()
				acked = append(acked, e)
				ackMu.Unlock()
			}
		}()
	}

	// Let the load build, then pull the plug mid-flight.
	time.Sleep(150 * time.Millisecond)
	shutCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	start := time.Now()
	err = env.srv.Shutdown(shutCtx)
	drainTook := time.Since(start)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("drain hit the hard deadline after %v: %v", drainTook, err)
	}
	if serveErr := <-env.done; serveErr != nil {
		t.Fatalf("serve: %v", serveErr)
	}

	// Zero acked-op loss: every acknowledged element is present with both
	// labels, and sibling order is consistent.
	ackMu.Lock()
	got := append([]order.ElemLIDs(nil), acked...)
	ackMu.Unlock()
	if len(got) == 0 {
		t.Fatal("no ops were acknowledged before the drain; test proves nothing")
	}
	for i, e := range got {
		if _, err := env.store.Lookup(e.Start); err != nil {
			t.Fatalf("acked op %d/%d lost: start LID %d: %v", i, len(got), e.Start, err)
		}
		if _, err := env.store.Lookup(e.End); err != nil {
			t.Fatalf("acked op %d/%d lost: end LID %d: %v", i, len(got), e.End, err)
		}
		if cmp, err := env.store.Compare(e.Start, e.End); err != nil || cmp != -1 {
			t.Fatalf("acked op %d: start/end order broken: %d, %v", i, cmp, err)
		}
	}

	// Clean shutdown: the store closes without error and the
	// structure is intact.
	if err := env.store.CheckInvariants(); err != nil {
		t.Fatalf("invariants after drain: %v", err)
	}
	if err := env.store.Close(); err != nil {
		t.Fatalf("store close after drain: %v", err)
	}
}
