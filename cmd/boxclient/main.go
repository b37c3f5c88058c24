// Command boxclient talks to a boxserve instance: single ordered-label
// operations for scripting, or a closed-loop load generator (-load) that
// drives the positional workload sources over N connections and counts
// acked, failed and skipped operations. Timing served requests is the
// benchmark's job (benchmark/run.sh), not this tool's.
//
// Usage:
//
//	boxclient -addr :4280 insert-first
//	boxclient -addr :4280 insert 2            # before the tag with LID 2
//	boxclient -addr :4280 lookup 1
//	boxclient -addr :4280 compare 1 3
//	boxclient -addr :4280 delete 3 4          # start and end LID
//	boxclient -addr :4280 -load -source zipf -conns 8 -ops 20000
//
// Every operation carries a session-scoped sequence number, so retries
// after lost acks are exactly-once within a server lifetime. -load exits 1
// when any operation failed after its retries, so a script can gate on it.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"boxes/internal/order"
	"boxes/internal/serve"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:4280", "boxserve address")
		timeout = flag.Duration("timeout", 5*time.Second, "per-op deadline (rides the wire; the server cancels queued ops past it)")
		load    = flag.Bool("load", false, "run the closed-loop load generator instead of a single op")
		source  = flag.String("source", "zipf", "load workload: zipf | churn | uniform | bisect | frontpack")
		conns   = flag.Int("conns", 4, "load: concurrent connections")
		ops     = flag.Int("ops", 1000, "load: total operation budget across all connections")
		seed    = flag.Int64("seed", 1, "load: workload seed")
		skew    = flag.Float64("skew", 1.1, "load: zipf skew")
		churn   = flag.Int("churn-target", 64, "load: churn steady-state size per connection")
	)
	flag.Parse()

	if *load {
		runLoad(*addr, *timeout, *source, *conns, *ops, *seed, *skew, *churn)
		return
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: boxclient [flags] <insert-first | insert LID | delete START END | delete-subtree START END | lookup LID | compare A B>")
		fmt.Fprintln(os.Stderr, "       boxclient [flags] -load")
		os.Exit(2)
	}

	c, err := serve.Dial(*addr, serve.ClientOptions{Timeout: *timeout})
	if err != nil {
		fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	switch cmd := flag.Arg(0); cmd {
	case "insert-first":
		e, err := c.InsertFirst(ctx)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("inserted root element: start LID %d, end LID %d\n", e.Start, e.End)
	case "insert":
		lid := lidArg(1)
		e, err := c.Insert(ctx, lid)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("inserted before LID %d: start LID %d, end LID %d\n", lid, e.Start, e.End)
	case "delete":
		e := order.ElemLIDs{Start: lidArg(1), End: lidArg(2)}
		if err := c.DeleteElement(ctx, e); err != nil {
			fatal(err)
		}
		fmt.Printf("deleted element (LIDs %d, %d)\n", e.Start, e.End)
	case "delete-subtree":
		e := order.ElemLIDs{Start: lidArg(1), End: lidArg(2)}
		if err := c.DeleteSubtree(ctx, e); err != nil {
			fatal(err)
		}
		fmt.Printf("deleted subtree rooted at (LIDs %d, %d)\n", e.Start, e.End)
	case "lookup":
		lid := lidArg(1)
		label, err := c.Lookup(ctx, lid)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("LID %d = label %d\n", lid, label)
	case "compare":
		a, b := lidArg(1), lidArg(2)
		cmp, err := c.Compare(ctx, a, b)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("compare(%d, %d) = %d\n", a, b, cmp)
	default:
		fatal(fmt.Errorf("unknown command %q", cmd))
	}
}

func runLoad(addr string, timeout time.Duration, source string, conns, ops int, seed int64, skew float64, churn int) {
	rep, err := serve.RunLoad(context.Background(), serve.LoadConfig{
		Addr:        addr,
		Conns:       conns,
		Ops:         ops,
		Source:      source,
		Seed:        seed,
		Skew:        skew,
		ChurnTarget: churn,
		Timeout:     timeout,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("load    : %s over %d conns\n", rep.Source, rep.Conns)
	fmt.Printf("ops     : %d attempted, %d acked, %d failed, %d skipped in %v\n",
		rep.Attempted, rep.Acked, rep.Failed, rep.Skipped, rep.Duration.Round(time.Millisecond))
	if rep.Failed > 0 {
		fatal(fmt.Errorf("%d operations failed", rep.Failed))
	}
}

func lidArg(i int) order.LID {
	if i >= flag.NArg() {
		fatal(fmt.Errorf("missing LID argument %d", i))
	}
	n, err := strconv.ParseUint(flag.Arg(i), 10, 64)
	if err != nil {
		fatal(fmt.Errorf("bad LID %q: %w", flag.Arg(i), err))
	}
	return order.LID(n)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "boxclient: %v\n", err)
	os.Exit(1)
}
