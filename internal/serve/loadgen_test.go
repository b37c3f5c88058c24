package serve

import (
	"context"
	"net"
	"testing"
	"time"

	"boxes/internal/faults"
)

// TestRunLoadUnderConnFaults is serve-smoke's claim as a test: the zipf and
// churn loads over four connections, against a server that kills the
// connection at every 7th write it makes (lost acks and lost handshakes),
// fail no operation — client retry plus session dedup absorb every fault —
// and land every acked write exactly once.
func TestRunLoadUnderConnFaults(t *testing.T) {
	sched := faults.NewSchedule(3)
	sched.FailEveryKth(7, faults.ModeCrash, faults.OpWrite)
	env := startEnv(t, envOptions{
		wrapConn: func(conn net.Conn) net.Conn { return NewFaultConn(conn, sched) },
	})
	for _, source := range []string{"zipf", "churn"} {
		before := env.store.Count()
		rep, err := RunLoad(context.Background(), LoadConfig{
			Addr: env.addr, Conns: 4, Ops: 400, Source: source, Seed: 1,
			Timeout: 5 * time.Second,
		})
		if err != nil {
			t.Fatalf("%s: %v", source, err)
		}
		if rep.Failed != 0 || rep.Acked+rep.Skipped != rep.Attempted || rep.Attempted != 400 {
			t.Fatalf("%s: %d attempted, %d acked, %d failed, %d skipped; want all 400 acked or skipped",
				source, rep.Attempted, rep.Acked, rep.Failed, rep.Skipped)
		}
		// Each worker's anchor is one element, and so is every acked insert
		// and delete; the first load also bootstraps the root element.
		elems := uint64(rep.Conns) + rep.Inserted - rep.Deleted
		if before == 0 {
			elems++
		}
		if got, want := env.store.Count(), before+2*elems; got != want {
			t.Fatalf("%s: store holds %d labels, want %d (%d inserted, %d deleted): exactly-once violated",
				source, got, want, rep.Inserted, rep.Deleted)
		}
	}
	if sched.Injected() < 100 {
		t.Fatalf("only %d connection kills injected; the loads never exercised retry", sched.Injected())
	}
	if err := env.store.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	env.shutdown()
	fsckPath(t, env.path)
}
