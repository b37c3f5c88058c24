package serve

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"boxes/internal/core"
	"boxes/internal/faults"
	"boxes/internal/fsck"
	"boxes/internal/order"
	"boxes/internal/pager"
)

// sweepOracle is the client-side ground truth of one sweep round: the
// elements acked live, in document order, plus the acked deletes.
type sweepOracle struct {
	live    []order.ElemLIDs
	deleted []order.ElemLIDs
}

// runSweepOps drives a deterministic insert/delete/lookup mix through c,
// recording every acknowledged mutation in the oracle. Every op either
// acks (and enters the oracle) or fails the round.
func runSweepOps(t *testing.T, c *Client, root order.ElemLIDs, nops int, seed int64) *sweepOracle {
	t.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	o := &sweepOracle{}
	for i := 0; i < nops; i++ {
		switch {
		case len(o.live) > 4 && rng.Intn(100) < 20: // delete
			idx := rng.Intn(len(o.live))
			e := o.live[idx]
			if err := c.DeleteElement(ctx, e); err != nil {
				t.Fatalf("sweep op %d (delete): %v", i, err)
			}
			o.live = append(o.live[:idx], o.live[idx+1:]...)
			o.deleted = append(o.deleted, e)
		case len(o.live) > 0 && rng.Intn(100) < 20: // lookup
			idx := rng.Intn(len(o.live))
			if _, err := c.Lookup(ctx, o.live[idx].Start); err != nil {
				t.Fatalf("sweep op %d (lookup): %v", i, err)
			}
		default: // insert at a random position among the live siblings
			target := root.End
			idx := len(o.live)
			if len(o.live) > 0 && rng.Intn(2) == 0 {
				idx = rng.Intn(len(o.live))
				target = o.live[idx].Start
			}
			e, err := c.Insert(ctx, target)
			if err != nil {
				t.Fatalf("sweep op %d (insert): %v", i, err)
			}
			o.live = append(o.live, order.ElemLIDs{})
			copy(o.live[idx+1:], o.live[idx:])
			o.live[idx] = e
		}
	}
	return o
}

// verifyOracle checks the server's document against the oracle over a
// fresh connection: every acked-live element present with start before
// end, sibling order exactly the oracle's, every acked-deleted element
// gone (its LID either unknown or reused by a live acked element — the
// labeler recycles deleted slots), and the store's label count exactly
// 2*(live+1) — exactly-once, no ghosts.
func verifyOracle(t *testing.T, env *testEnv, root order.ElemLIDs, o *sweepOracle) {
	t.Helper()
	ctx := context.Background()
	retry := faults.DefaultRetryPolicy()
	retry.MaxAttempts = 10
	// The verify conn goes through the same (possibly fault-wrapped)
	// listener; the eager handshake has no retry loop of its own.
	var c *Client
	var err error
	for attempt := 0; attempt < 10; attempt++ {
		c, err = Dial(env.addr, ClientOptions{Timeout: 5 * time.Second, Retry: &retry})
		if err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("verify dial: %v", err)
	}
	defer c.Close()
	for i, e := range o.live {
		if cmp, err := c.Compare(ctx, e.Start, e.End); err != nil || cmp != -1 {
			t.Fatalf("live elem %d: start/end order %d, %v", i, cmp, err)
		}
		if i > 0 {
			prev := o.live[i-1]
			if cmp, err := c.Compare(ctx, prev.Start, e.Start); err != nil || cmp != -1 {
				t.Fatalf("sibling order broken at %d: %d, %v", i, cmp, err)
			}
		}
	}
	liveLIDs := map[order.LID]bool{root.Start: true, root.End: true}
	for _, e := range o.live {
		liveLIDs[e.Start] = true
		liveLIDs[e.End] = true
	}
	for i, e := range o.deleted {
		if _, err := c.Lookup(ctx, e.Start); err == nil {
			if !liveLIDs[e.Start] {
				t.Fatalf("deleted elem %d still present (LID %d not reused)", i, e.Start)
			}
		} else if !errors.Is(err, order.ErrUnknownLID) {
			t.Fatalf("deleted elem %d: lookup: %v", i, err)
		}
	}
	want := uint64(2 * (len(o.live) + 1))
	if got := env.store.Count(); got != want {
		t.Fatalf("store count %d; want %d (exactly-once violated)", got, want)
	}
}

// Client-side connection faults at every protocol write point: for each
// write ordinal k, one round crashes the client's connection exactly at
// its k-th write — cleanly and with a torn (partial) frame — and the
// retry/dedup path must still land every op exactly once.
func TestSweepClientConnFaults(t *testing.T) {
	const nops = 30
	for _, torn := range []bool{false, true} {
		for k := 1; k <= 10; k++ {
			env := startEnv(t, envOptions{})
			sched := faults.NewSchedule(int64(100 + k))
			sched.CrashAtWrite(k, torn)
			var usedFault atomic.Bool
			dial := func() (net.Conn, error) {
				conn, err := net.Dial("tcp", env.addr)
				if err != nil {
					return nil, err
				}
				// Only the first connection is fault-wrapped: the round
				// injects one fault at one write point, then the client's
				// recovery runs on a clean transport.
				if !usedFault.Swap(true) {
					return NewFaultConn(conn, sched), nil
				}
				return conn, nil
			}
			c, err := Dial(env.addr, ClientOptions{Timeout: 5 * time.Second, Dial: dial})
			if err != nil {
				// The fault fired inside the eager handshake (small k).
				// Reconnecting — now on a clean transport — must succeed.
				c, err = Dial(env.addr, ClientOptions{Timeout: 5 * time.Second, Dial: dial})
				if err != nil {
					t.Fatalf("k=%d torn=%v: redial after handshake fault: %v", k, torn, err)
				}
			}
			root, err := c.InsertFirst(context.Background())
			if err != nil {
				t.Fatalf("k=%d torn=%v: root: %v", k, torn, err)
			}
			o := runSweepOps(t, c, root, nops, int64(k))
			c.Close()
			verifyOracle(t, env, root, o)
			env.shutdown()
			fsckPath(t, env.path)
		}
	}
}

// Server-side faults: stalls, byte corruption, and connection kills on
// the server's response writes (lost acks). The client's re-send of the
// same sequence number must replay from the dedup table, never
// re-applying.
func TestSweepServerConnFaults(t *testing.T) {
	const nops = 30
	cases := []struct {
		name string
		mode faults.Mode
		k    int
	}{
		{"stall-every-2", faults.ModeTransient, 2},
		{"corrupt-every-3", faults.ModePermanent, 3},
		{"corrupt-every-5", faults.ModePermanent, 5},
		{"kill-every-5", faults.ModeCrash, 5},
		{"kill-every-7", faults.ModeCrash, 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sched := faults.NewSchedule(7)
			sched.FailEveryKth(tc.k, tc.mode, faults.OpWrite)
			env := startEnv(t, envOptions{
				wrapConn: func(conn net.Conn) net.Conn {
					fc := NewFaultConn(conn, sched)
					fc.Stall = time.Millisecond
					return fc
				},
			})
			retry := faults.DefaultRetryPolicy()
			retry.MaxAttempts = 8
			c, err := Dial(env.addr, ClientOptions{Timeout: 5 * time.Second, Retry: &retry})
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			root, err := c.InsertFirst(context.Background())
			if err != nil {
				t.Fatalf("root: %v", err)
			}
			o := runSweepOps(t, c, root, nops, 99)
			c.Close()
			verifyOracle(t, env, root, o)
			env.shutdown()
			fsckPath(t, env.path)
		})
	}
}

// A mid-run power cut on the server's disk: acked ops must all survive
// recovery, the at-most-one in-flight unacked op must be atomic (fully
// present or fully absent), and the store must be fsck-clean.
func TestSweepPowerCut(t *testing.T) {
	for _, crashAt := range []int{10, 25, 40, 55} {
		cc := pager.NewDiskController()
		cc.PlanWrite(crashAt, pager.DiskTornCrash)
		env := startEnv(t, envOptions{crash: cc})
		c, err := Dial(env.addr, ClientOptions{Timeout: 5 * time.Second})
		if err != nil {
			t.Fatalf("crashAt=%d: dial: %v", crashAt, err)
		}
		ctx := context.Background()
		root, rootErr := c.InsertFirst(ctx)
		var acked []order.ElemLIDs
		if rootErr == nil {
			for i := 0; i < 60; i++ {
				e, err := c.Insert(ctx, root.End)
				if err != nil {
					break // the power cut fired mid-op
				}
				acked = append(acked, e)
			}
		}
		c.Close()
		if !cc.Crashed() {
			env.shutdown()
			t.Fatalf("crashAt=%d: power cut never fired (only %d writes)", crashAt, cc.Writes())
		}
		// Tear the server down; the store is dead (poisoned backend), so
		// Close errors are expected and ignored.
		shutCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
		env.srv.Shutdown(shutCtx)
		cancel()
		<-env.done
		env.store.Close()

		// Offline check, then recovery.
		fsckPath(t, env.path)
		fb, err := pager.OpenFile(env.path)
		if err != nil {
			t.Fatalf("crashAt=%d: reopen: %v", crashAt, err)
		}
		st, err := core.OpenExisting(fb, core.Options{})
		if rootErr != nil {
			// The cut predated even the root commit: an empty (or absent)
			// store is the only acceptable state.
			if err != nil && !errors.Is(err, core.ErrNoSavedStore) {
				t.Fatalf("crashAt=%d: open after pre-root crash: %v", crashAt, err)
			}
			if err == nil && st.Count() > 2 {
				t.Fatalf("crashAt=%d: %d labels despite no acked ops", crashAt, st.Count())
			}
			fb.Close()
			continue
		}
		if err != nil {
			t.Fatalf("crashAt=%d: open existing: %v", crashAt, err)
		}
		// Acked => present.
		for i, e := range acked {
			if _, err := st.Lookup(e.Start); err != nil {
				t.Fatalf("crashAt=%d: acked insert %d/%d lost: %v", crashAt, i, len(acked), err)
			}
			if _, err := st.Lookup(e.End); err != nil {
				t.Fatalf("crashAt=%d: acked insert %d end lost: %v", crashAt, i, err)
			}
		}
		// Document order preserved across recovery.
		for i := 1; i < len(acked); i++ {
			if cmp, err := st.Compare(acked[i-1].Start, acked[i].Start); err != nil || cmp != -1 {
				t.Fatalf("crashAt=%d: order broken at %d: %d, %v", crashAt, i, cmp, err)
			}
		}
		// Unacked => atomic: the only permissible extra is the single
		// in-flight insert (2 labels), fully present or fully absent.
		minWant := uint64(2 * (len(acked) + 1))
		got := st.Count()
		if got != minWant && got != minWant+2 {
			t.Fatalf("crashAt=%d: count %d; want %d or %d (atomicity violated)",
				crashAt, got, minWant, minWant+2)
		}
		if err := st.CheckInvariants(); err != nil {
			t.Fatalf("crashAt=%d: invariants after recovery: %v", crashAt, err)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("crashAt=%d: close after recovery: %v", crashAt, err)
		}
	}
}

// fsckPath asserts the on-disk store is clean (no structural errors).
func fsckPath(t *testing.T, path string) {
	t.Helper()
	rep, err := fsck.Check(path, fsck.Options{})
	if err != nil {
		t.Fatalf("fsck %s: %v", path, err)
	}
	if !rep.Clean() {
		t.Fatalf("fsck %s: %d problems: %+v", path, len(rep.Problems), rep.Problems)
	}
}
