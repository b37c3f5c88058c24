package difftest

import (
	"fmt"
	"math/rand"
	"testing"

	"boxes/internal/pager"
)

// Frame poisoning is on for every test of this package: a lookup that reads
// a borrowed frame after releasing it diverges from the oracle instead of
// passing on stale-but-plausible bytes.
func init() { pager.HookPoisonFrames = true }

// TestDiffSeededScripts is the deterministic property test: pseudo-random
// scripts of increasing length drive all five schemes and the oracle. Any
// failure prints the script bytes, which can be dropped straight into the
// fuzz corpus.
func TestDiffSeededScripts(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is not short")
	}
	// Every seed runs as shipped (LRU off: views are free-list frames) and
	// with a small LRU (views are resident frames that puts replace).
	for seed := int64(1); seed <= 12; seed++ {
		for _, cacheBlocks := range []int{0, 6} {
			seed, cacheBlocks := seed, cacheBlocks
			t.Run(fmt.Sprintf("seed%d-lru%d", seed, cacheBlocks), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(seed))
				n := 32 + rng.Intn(3*maxScriptOps)
				script := make([]byte, n)
				rng.Read(script)
				e, err := newEngine(cacheBlocks)
				if err != nil {
					t.Fatal(err)
				}
				if err := e.run(script); err != nil {
					t.Fatalf("seed %d lru %d script %q: %v", seed, cacheBlocks, script, err)
				}
			})
		}
	}
}

// TestDiffDirectedScripts pins down hand-written scenarios the random
// sweep may miss: bootstrap-only, delete-to-empty-and-rebootstrap, and
// batch-heavy scripts.
func TestDiffDirectedScripts(t *testing.T) {
	cases := map[string][]byte{
		"bootstrap-only": {0},
		"insert-chain":   {0, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6},
		"subtree-churn":  {0, 1, 0, 0, 2, 1, 1, 1, 1, 3, 0, 0, 1, 2, 2, 4, 0, 1, 2},
		"batch-heavy":    {0, 5, 9, 0, 0, 1, 3, 2, 7, 5, 3, 0, 1, 0, 1, 1, 2, 5, 1, 4, 4, 2},
		"reads-mixed":    {0, 4, 1, 0, 2, 1, 4, 3, 1, 0, 0, 4, 4, 5, 6, 4, 2, 0},
		// Every stale-LID shape (kinds 0xf8..0xff) after a delete, again
		// after an insert reissued the freed LIDs, and after a subtree
		// delete; also committed as testdata/fuzz/FuzzOps/stale-lid-ops.
		"stale-lid": {0, 0, 0, 1, 0, 0, 1, 0, 1, 1, 2, 1, 0,
			0xf8, 0, 1, 0xf9, 0, 1, 0xfa, 0, 1, 0xfb, 0, 1, 0xfc, 0, 1, 0xfd, 0, 1, 0xfe, 0, 1, 0xff, 0, 1,
			0, 0, 1, 0xf8, 1, 0, 0xf9, 1, 0, 0xfb, 1, 0, 0xff, 1, 0,
			1, 0, 1, 2, 3, 1, 0, 0xfa, 0, 0, 0xfc, 0, 0, 0xfd, 0, 0, 0xfe, 0, 0, 0xff, 0, 0, 5, 1, 0, 0, 1},
		// Every stale-anchor insert shape (side byte bit 1 set) after an
		// element delete, after a subtree delete, and after an insert that
		// reissued freed LIDs — the free-list head is the stale anchor, which
		// an insert that allocated first would have handed back to itself;
		// also committed as testdata/fuzz/FuzzOps/stale-lid-inserts.
		"stale-insert": {0, 0, 0, 1, 0, 0, 1, 0, 1, 1, 2, 1, 0,
			0xf8, 0, 2, 0xf9, 0, 3, 0xfa, 0, 2, 0xfb, 0, 3,
			0, 0, 1, 2, 1, 0, 0xfc, 0, 3, 0xfd, 0, 2, 0xfe, 0, 3, 0xff, 0, 2,
			3, 1, 0, 0xf8, 0, 2, 0xf9, 0, 2, 0, 0, 1, 0xfa, 0, 3, 0xfb, 0, 2},
	}
	for name, script := range cases {
		name, script := name, script
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if err := Exec(script); err != nil {
				t.Fatalf("script %v: %v", script, err)
			}
		})
	}
}

// TestDiffDeleteToEmpty drives the document empty and rebootstraps it,
// twice — the lifecycle edge the schemes must all agree on.
func TestDiffDeleteToEmpty(t *testing.T) {
	// op 0: bootstrap; kind%7==3 deletes a subtree — targeting element 0
	// (the root) empties the document; the next op rebootstraps.
	script := []byte{
		0,       // bootstrap
		3, 0, 0, // delete subtree at root -> empty
		0,       // rebootstrap
		0, 0, 0, // insert-before
		3, 0, 0, // empty again (delete root subtree)
		0, // rebootstrap again
	}
	if err := Exec(script); err != nil {
		t.Fatal(err)
	}
}

// FuzzOps is the native fuzz target: go test -fuzz=FuzzOps ./internal/difftest
func FuzzOps(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6})
	f.Add([]byte{0, 1, 0, 0, 2, 1, 1, 1, 1, 3, 0, 0, 1, 2, 2, 4, 0, 1, 2})
	f.Add([]byte{0, 5, 9, 0, 0, 1, 3, 2, 7, 5, 3, 0, 1, 0, 1, 1, 2, 5, 1, 4, 4, 2})
	f.Add([]byte{0, 3, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0})
	// Promoted sim-minimizer shapes (also committed under testdata/fuzz):
	// drain-to-empty-then-rebootstrap (the two-event tombstone-strand
	// repro) and a full churn hysteresis cycle.
	f.Add([]byte{1, 2, 0, 0, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 0, 2, 1, 2, 3, 0, 2, 0, 0, 2, 1, 0, 2, 0, 0, 0, 0, 0, 1, 2, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4*maxScriptOps {
			script = script[:4*maxScriptOps]
		}
		if err := Exec(script); err != nil {
			t.Fatalf("script %q: %v", script, err)
		}
	})
}
