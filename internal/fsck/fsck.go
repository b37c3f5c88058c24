// Package fsck is the offline consistency checker behind cmd/boxfsck: it
// opens a stored box file (running WAL recovery exactly as any open
// does), verifies every block's checksum, walks the free list, restores
// the labeling structure and checks its invariants, and cross-references
// the blocks the structure claims against the free list — reporting
// blocks that are neither reachable nor free (leaked orphans, repairable)
// and blocks that are both (corruption).
package fsck

import (
	"errors"
	"fmt"

	"boxes/internal/core"
	"boxes/internal/obs"
	"boxes/internal/pager"
)

// Options configures a check.
type Options struct {
	// Repair frees orphaned blocks (reachable by nothing, absent from the
	// free list) in one atomic transaction after the scan.
	Repair bool
	// CrashDir, when set, writes a flight-recorder dump tagged
	// stage=fsck whenever the check finds problems or fails outright.
	CrashDir string
	// Verbose has no effect on the checks; cmd/boxfsck uses it to print
	// per-block progress.
	Verbose bool
}

// Severity classifies a finding.
type Severity int

const (
	// SevError findings mean the store is damaged or inconsistent.
	SevError Severity = iota
	// SevWarn findings are recoverable oddities (leaked blocks, a store
	// with no saved structure to check).
	SevWarn
)

func (s Severity) String() string {
	if s == SevWarn {
		return "warn"
	}
	return "error"
}

// Problem is one finding.
type Problem struct {
	Severity Severity
	Block    pager.BlockID // NilBlock when not block-specific
	Message  string
}

func (p Problem) String() string {
	if p.Block != pager.NilBlock {
		return fmt.Sprintf("%s: block %d: %s", p.Severity, p.Block, p.Message)
	}
	return fmt.Sprintf("%s: %s", p.Severity, p.Message)
}

// Report is the outcome of one check.
type Report struct {
	Path      string
	BlockSize int
	Bound     pager.BlockID // exclusive upper bound of ever-allocated IDs
	Allocated uint64
	FreeCount int
	Scheme    string // restored scheme name, "" if none saved
	Labels    uint64 // live labels in the restored structure

	Recovery pager.RecoveryInfo
	Problems []Problem
	Orphans  []pager.BlockID // neither reachable nor free
	Repaired int             // orphans freed (with Options.Repair)
}

// Clean reports whether the store passed with no errors (warnings,
// including repaired orphans, do not make a store unclean).
func (r *Report) Clean() bool {
	for _, p := range r.Problems {
		if p.Severity == SevError {
			return false
		}
	}
	return true
}

func (r *Report) errorf(blk pager.BlockID, format string, args ...any) {
	r.Problems = append(r.Problems, Problem{Severity: SevError, Block: blk, Message: fmt.Sprintf(format, args...)})
}

func (r *Report) warnf(blk pager.BlockID, format string, args ...any) {
	r.Problems = append(r.Problems, Problem{Severity: SevWarn, Block: blk, Message: fmt.Sprintf(format, args...)})
}

// blockWalker is implemented by every scheme a saved store can hold (and
// lidf.File):
// it visits the store blocks the structure occupies.
type blockWalker interface {
	WalkBlocks(func(pager.BlockID) error) error
}

// Check opens the store at path and runs every check. The returned error
// is non-nil only when the file cannot be examined at all (unreadable,
// unrecoverable header); detected damage is returned inside the Report.
func Check(path string, opts Options) (*Report, error) {
	rep, err := check(path, opts)
	if opts.CrashDir != "" {
		if err != nil {
			dumpFsckFailure(opts.CrashDir, path, err)
		} else if !rep.Clean() {
			dumpFsckFailure(opts.CrashDir, path, fmt.Errorf("fsck: %s: %d problems", path, len(rep.Problems)))
		}
	}
	return rep, err
}

func dumpFsckFailure(dir, path string, err error) {
	obs.DumpFailure(nil, dir, "fsck", err, map[string]string{"stage": "fsck", "store": path})
}

func check(path string, opts Options) (*Report, error) {
	fb, err := pager.OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer fb.Close()

	rep := &Report{
		Path:      path,
		BlockSize: fb.BlockSize(),
		Bound:     fb.Bound(),
		Allocated: fb.NumBlocks(),
		Recovery:  fb.RecoveryInfo(),
	}
	if rep.Recovery.SidecarRebuilt {
		rep.warnf(pager.NilBlock, "checksum sidecar was missing and has been rebuilt; pre-existing corruption is no longer detectable")
	}

	// Pass 1: every ever-allocated block must verify against its checksum.
	for id := pager.BlockID(1); id < fb.Bound(); id++ {
		if err := fb.VerifyBlock(id); err != nil {
			rep.errorf(id, "checksum verification failed: %v", err)
		}
	}

	// Pass 2: the free list must be acyclic, in-range, and readable.
	free, err := fb.FreeBlocks()
	inFree := make(map[pager.BlockID]bool, len(free))
	for _, id := range free {
		if inFree[id] {
			rep.errorf(id, "appears on the free list twice")
		}
		inFree[id] = true
	}
	rep.FreeCount = len(free)
	if err != nil {
		rep.errorf(pager.NilBlock, "free list walk: %v", err)
		// The free set is unreliable; orphan analysis would misfire.
		return rep, nil
	}
	if got, want := uint64(fb.Bound()-1)-uint64(len(free)), fb.NumBlocks(); got != want {
		rep.errorf(pager.NilBlock, "header counts %d allocated blocks but %d exist outside the free list", want, got)
	}

	// Pass 3: restore the labeling structure and check its invariants
	// (tree balance, label order, LIDF cross-references).
	st, err := core.OpenExisting(fb, core.Options{})
	if errors.Is(err, core.ErrNoSavedStore) {
		rep.warnf(pager.NilBlock, "no saved structure metadata; structural checks skipped")
		return rep, nil
	}
	if err != nil {
		rep.errorf(pager.NilBlock, "restoring saved structure: %v", err)
		return rep, nil
	}
	rep.Scheme = st.Scheme().String()
	rep.Labels = st.Count()
	if err := st.CheckInvariants(); err != nil {
		rep.errorf(pager.NilBlock, "structure invariants: %v", err)
	}

	// Pass 4: reachability. Every block is either reachable from the
	// structure (tree nodes, LIDF extents, the metadata blob chain) or on
	// the free list — never both, never neither.
	reachable := make(map[pager.BlockID]bool)
	walkErr := st.Labeler().(blockWalker).WalkBlocks(func(id pager.BlockID) error {
		if id == pager.NilBlock || id >= fb.Bound() {
			rep.errorf(id, "structure references a block outside the file (bound %d)", fb.Bound())
			return nil
		}
		if reachable[id] {
			rep.errorf(id, "referenced twice by the structure")
			return nil
		}
		reachable[id] = true
		return nil
	})
	if walkErr != nil {
		rep.errorf(pager.NilBlock, "structure walk: %v", walkErr)
		return rep, nil
	}
	probe := pager.NewStore(fb)
	if head, err := fb.MetaRoot(); err == nil && head != pager.NilBlock {
		blobBlocks, err := probe.BlobBlocks(head)
		for _, id := range blobBlocks {
			if reachable[id] {
				rep.errorf(id, "metadata blob block also referenced by the structure")
			}
			reachable[id] = true
		}
		if err != nil {
			rep.errorf(pager.NilBlock, "metadata blob chain: %v", err)
		}
	}
	for _, id := range free {
		if reachable[id] {
			rep.errorf(id, "reachable from the structure but also on the free list")
		}
	}
	for id := pager.BlockID(1); id < fb.Bound(); id++ {
		if !reachable[id] && !inFree[id] {
			rep.Orphans = append(rep.Orphans, id)
		}
	}
	if len(rep.Orphans) > 0 {
		rep.warnf(pager.NilBlock, "%d orphaned blocks (allocated, unreachable, not free)", len(rep.Orphans))
	}

	// Pass 5 (optional): repair. Freeing the orphans is one atomic
	// transaction, so a crash mid-repair cannot make things worse.
	if opts.Repair && len(rep.Orphans) > 0 && rep.Clean() {
		probe.BeginOp()
		var ferr error
		for _, id := range rep.Orphans {
			if ferr = probe.Free(id); ferr != nil {
				break
			}
		}
		if err := probe.EndOp(); ferr == nil {
			ferr = err
		}
		if ferr != nil {
			rep.errorf(pager.NilBlock, "repair: %v", ferr)
		} else {
			rep.Repaired = len(rep.Orphans)
		}
	}
	return rep, nil
}
