// Package boxes is a Go implementation of BOXes — the I/O-efficient data
// structures for maintaining order-based labels over dynamic XML documents
// from Silberstein, He, Yi & Yang, "BOXes: Efficient Maintenance of
// Order-Based Labeling for Dynamic XML Data" (ICDE 2005).
//
// Every XML element carries a pair of integer labels (start, end) ordered
// exactly like the element's tags in the document, so that ancestorship is
// a pair of integer comparisons. This package maintains those labels as
// the document changes:
//
//   - WBox — a weight-balanced B-tree storing the labels: constant-cost
//     lookups (2 block I/Os), logarithmic amortized updates.
//   - WBoxO — the pair-optimized variant that answers start+end lookups
//     with a single structure I/O.
//   - BBox — a keyless back-linked B-tree storing no label values at all:
//     constant amortized updates, logarithmic lookups.
//   - Naive — the classic gap-labeling baseline with global relabeling,
//     included for comparison; in memory only (persisting it returns
//     ErrNotPersistent).
//
// Labels are always reached through immutable label IDs (LIDs), allocated
// in a compact heap file, so references to labels stored in other indexes
// never need updating.
//
// Quick start:
//
//	st, _ := boxes.Open(boxes.Options{Scheme: boxes.WBox})
//	doc, _ := st.Load(boxes.GenerateXMark(100_000, 1))
//	span, _ := st.LookupSpan(doc.Elems[0])
package boxes

import (
	"io"
	"net/http"

	"boxes/internal/core"
	"boxes/internal/obs"
	"boxes/internal/order"
	"boxes/internal/pager"
	"boxes/internal/query"
	"boxes/internal/xmlgen"
)

// Re-exported core types. See the internal/core package for details.
type (
	// Options configures a labeling Store.
	Options = core.Options
	// Store maintains the dynamic labeling of one document.
	Store = core.Store
	// Document couples a Store with a loaded tree's element LIDs.
	Document = core.Document
	// Scheme selects the labeling structure.
	Scheme = core.Scheme
	// BatchOp is one operation of a Store.ApplyBatch batch.
	BatchOp = core.Op
	// BatchOpKind selects a BatchOp's operation.
	BatchOpKind = core.OpKind
	// BatchOpResult is the positional outcome of one BatchOp.
	BatchOpResult = core.OpResult
)

// ErrReadOnly is returned by mutations once a permanent write fault has
// flipped the store into read-only degraded mode; lookups keep serving the
// committed state. Test with errors.Is.
var ErrReadOnly = core.ErrReadOnly

// ErrNotPersistent is returned by Open with Durable, Save, Backup and
// OpenExisting for the Naive scheme, which exists in memory only.
var ErrNotPersistent = core.ErrNotPersistent

// ErrCorrupt matches (via errors.Is) every checksum failure the block layer
// reports.
var ErrCorrupt = pager.ErrCorrupt

// Batch operation kinds for Store.ApplyBatch.
const (
	BatchInsertBefore  = core.OpInsertBefore
	BatchInsertFirst   = core.OpInsertFirst
	BatchInsertSubtree = core.OpInsertSubtree
	BatchDelete        = core.OpDelete
	BatchDeleteElement = core.OpDeleteElement
	BatchDeleteSubtree = core.OpDeleteSubtree
	BatchLookup        = core.OpLookup
	BatchLookupSpan    = core.OpLookupSpan
	BatchOrdinal       = core.OpOrdinalLookup
)

// Labeling schemes.
const (
	WBox  = core.SchemeWBox
	WBoxO = core.SchemeWBoxO
	BBox  = core.SchemeBBox
	Naive = core.SchemeNaive
)

// Identifier and label types.
type (
	// LID is an immutable label identifier; safe to copy into indexes.
	LID = order.LID
	// Label is a dynamic label value.
	Label = order.Label
	// ElemLIDs is the (start, end) LID pair of one element.
	ElemLIDs = order.ElemLIDs
	// Span is an element's (start, end) label pair, the unit of query
	// processing.
	Span = query.Span
	// Elem is a named, labeled element (input to twig matching).
	Elem = query.Elem
	// Twig is a parsed path pattern.
	Twig = query.Twig
	// Pair is one containment-join result.
	Pair = query.Pair
	// IOStats counts block reads and writes.
	IOStats = pager.IOStats
)

// Observability types. Every Store reports per-operation latency and
// I/O-delta histograms plus structural counters (splits, rebuilds,
// relabels, block-cache hits) into a Metrics registry; see Store.Metrics,
// Store.MetricsRegistry, and MetricsHandler.
type (
	// Metrics is the registry a Store reports into. Pass one via
	// Options.Metrics to aggregate several stores into one endpoint.
	Metrics = obs.Registry
	// MetricsSnapshot is a point-in-time copy of every recorded metric.
	MetricsSnapshot = obs.Snapshot
)

// NewMetrics creates an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// MetricsHandler returns an http.Handler serving r's metrics in Prometheus
// text format at /metrics, plus the pprof endpoints under /debug/pprof/.
func MetricsHandler(r *Metrics) http.Handler { return obs.Handler(r) }

// Tree is an XML document modeled as an element tree.
type Tree = xmlgen.Tree

// Node is one element of a Tree.
type Node = xmlgen.Node

// Open creates an empty labeling store.
func Open(opts Options) (*Store, error) { return core.Open(opts) }

// OpenExisting resumes a store previously checkpointed with Store.Save on
// a persistent backend; structural options (scheme, block size, variant
// flags) come from the saved metadata and every other option is read from
// runtime.
func OpenExisting(backend pager.Backend, runtime Options) (*Store, error) {
	return core.OpenExisting(backend, runtime)
}

// GenerateXMark deterministically generates an XMark-shaped document with
// at least n elements.
func GenerateXMark(n int, seed int64) *Tree { return xmlgen.XMark(n, seed) }

// GenerateTwoLevel generates the paper's two-level base document: a root
// with n-1 children.
func GenerateTwoLevel(n int) *Tree { return xmlgen.TwoLevel(n) }

// ParseXML reads an XML document into a Tree.
func ParseXML(r io.Reader) (*Tree, error) { return xmlgen.Parse(r) }

// ContainmentJoin returns every (ancestor, descendant) index pair whose
// spans nest, in O(in + out) using the stack-based merge.
func ContainmentJoin(ancestors, descendants []Span) []Pair {
	return query.ContainmentJoin(ancestors, descendants)
}

// ParseTwig parses a path pattern such as "//open_auction//bidder/increase".
func ParseTwig(s string) Twig { return query.ParseTwig(s) }

// MatchTwig returns the indices of elems matching the twig's final step.
// elems must be sorted by start label.
func MatchTwig(elems []Elem, twig Twig) []int { return query.Match(elems, twig) }

// Pattern is a branching twig (tree pattern) with XPath-style predicates.
type Pattern = query.Pattern

// ParsePattern parses a branching pattern such as
// "//open_auction[//bidder/increase][/seller]//annotation".
func ParsePattern(s string) (*Pattern, error) { return query.ParsePattern(s) }

// MatchPattern returns the indices of elems matching the pattern's root
// with every branch satisfied. elems must be sorted by start label.
func MatchPattern(elems []Elem, pt *Pattern) []int { return query.MatchPattern(elems, pt) }

// CreateFileBackend creates a persistent file-backed block store usable as
// Options.Backend.
func CreateFileBackend(path string, blockSize int) (*pager.FileBackend, error) {
	return pager.CreateFile(path, blockSize)
}

// OpenFileBackend reopens a store file created by CreateFileBackend.
func OpenFileBackend(path string) (*pager.FileBackend, error) {
	return pager.OpenFile(path)
}
