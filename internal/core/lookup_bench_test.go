package core

import (
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"boxes/internal/order"
	"boxes/internal/pager"
	"boxes/internal/xmlgen"
)

// Frame poisoning is on for every test of this package (and of difftest
// and crashmatrix): a lookup that reads a frame after releasing it returns
// a wrong label instead of passing by luck.
func init() { pager.HookPoisonFrames = true }

// lookupSchemes is the five-scheme matrix of internal/difftest (which this
// package cannot import: it imports core).
var lookupSchemes = []struct {
	name string
	opts Options
}{
	{"wbox", Options{Scheme: SchemeWBox, Ordinal: true}},
	{"wbox-o", Options{Scheme: SchemeWBoxO, Ordinal: true}},
	{"bbox", Options{Scheme: SchemeBBox}},
	{"bbox-o", Options{Scheme: SchemeBBox, Ordinal: true, RelaxedFanout: true}},
	{"naive-8", Options{Scheme: SchemeNaive, NaiveK: 8}},
}

// lookupFixture is a loaded store of elems elements (8 KB blocks; height 2
// in both trees from a few thousand up) and its tag LIDs in random order.
// Every lookup takes the store's read lock and pins through a read op of
// its own, the path boxserve serves.
func lookupFixture(tb testing.TB, opts Options, elems int, file bool) (lookup func(order.LID) (order.Label, error), lids []order.LID) {
	tb.Helper()
	if file {
		fb, err := pager.CreateFile(filepath.Join(tb.TempDir(), "lookup.box"), pager.DefaultBlockSize)
		if err != nil {
			tb.Fatal(err)
		}
		opts.Backend = fb
	}
	st, err := Open(opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	doc, err := st.Load(xmlgen.XMark(elems, 1))
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range doc.Elems {
		lids = append(lids, e.Start, e.End)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(lids), func(i, j int) { lids[i], lids[j] = lids[j], lids[i] })
	return st.Lookup, lids
}

var lookupSink order.Label

func BenchmarkLookup(b *testing.B) {
	// Benchmarks run after the tests, alone: time the path that ships.
	pager.HookPoisonFrames = false
	defer func() { pager.HookPoisonFrames = true }()
	for _, sc := range lookupSchemes {
		for _, backend := range []string{"mem", "file"} {
			b.Run(sc.name+"/"+backend, func(b *testing.B) {
				lookup, lids := lookupFixture(b, sc.opts, 20000, backend == "file")
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					v, err := lookup(lids[i%len(lids)])
					if err != nil {
						b.Fatal(err)
					}
					lookupSink = v
				}
			})
		}
	}
}

// TestLookupAllocCeilings pins what the borrowed-frame read path bought: a
// BOX lookup allocates nothing over a MemBackend and at
// most once over a FileBackend, and a naive-8 lookup — which still builds
// its big.Int label — allocates nothing of block size.
func TestLookupAllocCeilings(t *testing.T) {
	for _, sc := range lookupSchemes {
		for _, file := range []bool{false, true} {
			lookup, lids := lookupFixture(t, sc.opts, 4000, file)
			i := 0
			run := func() {
				if _, err := lookup(lids[i%len(lids)]); err != nil {
					t.Fatal(err)
				}
				i++
			}
			const runs = 200
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			allocs := testing.AllocsPerRun(runs, run)
			runtime.ReadMemStats(&m1)
			bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / (runs + 1)
			ceiling, maxBytes := 0.0, 64.0
			if file {
				ceiling = 1
			}
			if sc.opts.Scheme == SchemeNaive {
				ceiling, maxBytes = 8, 1024
			}
			if allocs > ceiling || bytes > maxBytes {
				t.Errorf("%s file=%v: %.1f allocs and %.0f B per lookup, ceilings %.0f and %.0f B",
					sc.name, file, allocs, bytes, ceiling, maxBytes)
			}
		}
	}
}

// BenchmarkInsert is the write-side twin of BenchmarkLookup: scattered
// InsertElementBefore calls into a loaded in-memory 20k-element image, one
// per BOX scheme, reporting the counted block I/Os per insert beside the
// allocator figures.
func BenchmarkInsert(b *testing.B) {
	pager.HookPoisonFrames = false
	defer func() { pager.HookPoisonFrames = true }()
	for _, sc := range lookupSchemes[:4] {
		b.Run(sc.name, func(b *testing.B) {
			st, err := Open(sc.opts)
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			doc, err := st.Load(xmlgen.XMark(20000, 1))
			if err != nil {
				b.Fatal(err)
			}
			var lids []order.LID
			for _, e := range doc.Elems {
				lids = append(lids, e.Start, e.End)
			}
			rand.New(rand.NewSource(1)).Shuffle(len(lids), func(i, j int) { lids[i], lids[j] = lids[j], lids[i] })
			st.ResetStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.InsertElementBefore(lids[i%len(lids)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			io := st.Stats()
			b.ReportMetric(float64(io.Reads)/float64(b.N), "reads/op")
			b.ReportMetric(float64(io.Writes)/float64(b.N), "writes/op")
		})
	}
}
