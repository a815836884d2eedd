package store

import (
	"sync/atomic"

	"repro/internal/rdf"
)

// MVCC snapshot publication and the Begin/Commit writer protocol.
//
// A Graph is a single-writer, many-reader structure. The writer works on
// the live graph and, at commit points, publishes an immutable Snapshot via
// an atomic pointer swap; publishing bumps the graph's COW epoch so every
// structure the snapshot now shares with the live graph is copied before
// the writer's next mutation of it (see the package doc and bitset.go).
// Readers pin the latest snapshot with Graph.Snapshot() — one atomic load —
// and read its frozen view forever after without any coordination: pinned
// readers never block the writer and are never blocked by it.
//
// The transaction surface wraps the protocol for layered writers
// (feo.Session): Begin starts an ordered mutation capture whose op stream
// feeds the write-ahead log; Commit stops the capture and publishes (or
// CommitDeferred retains the state privately, letting a burst of commits
// share one freeze); Rollback restores the Begin state and discards the
// capture. Transactions do not nest and there is no writer queue —
// serializing writers is the caller's job, exactly as for plain mutations.

// Snapshot is an immutable published version of a Graph. Its Graph() view
// is a frozen *Graph sharing storage with the publisher via copy-on-write:
// every read method works, costs the same as on the live graph, and always
// observes exactly the state at publish time. Mutating methods panic.
//
//feo:frozen-type
type Snapshot struct {
	g          *Graph
	version    uint64
	superseded atomic.Bool
}

// Graph returns the frozen view. It is safe for any number of concurrent
// readers, concurrently with the writer committing new versions.
func (s *Snapshot) Graph() *Graph { return s.g }

// Version returns the mutation version the snapshot was published at.
func (s *Snapshot) Version() uint64 { return s.version }

// Superseded reports whether a newer snapshot has been published since this
// one. A pinned superseded snapshot remains fully readable, and it and its
// view's Memo are reclaimed together once the last pin is dropped.
func (s *Snapshot) Superseded() bool { return s.superseded.Load() }

// Publish freezes the current graph state as a Snapshot and makes it the
// one Snapshot() returns, via an atomic pointer swap. If nothing mutated
// since the last publish, the existing snapshot is returned unchanged.
// Writer-only; panics inside an open transaction (use Txn.Commit) and on a
// frozen view.
//
//feo:mutates
//feo:publish
func (g *Graph) Publish() *Snapshot {
	if g.frozen {
		panic("store: Publish on a frozen snapshot view")
	}
	if g.txn != nil {
		panic("store: Publish inside an open transaction")
	}
	return g.publish()
}

//feo:mutates
//feo:publish
func (g *Graph) publish() *Snapshot {
	if cur := g.published.Load(); cur != nil && cur.version == g.version {
		return cur
	}
	view := &Graph{
		dict:    g.dict,
		spo:     g.spo,
		pos:     g.pos,
		osp:     g.osp,
		subjN:   g.subjN,
		predN:   g.predN,
		objN:    g.objN,
		n:       g.n,
		version: g.version,
		// Namespaces are mutated in place by parsers, so the view gets its
		// own copy; the dictionary is concurrent-reader-safe and shared.
		ns:     g.ns.Clone(),
		frozen: true,
		dictN:  g.dict.Len(),
	}
	snap := &Snapshot{g: view, version: g.version}
	view.owner = snap
	if prev := g.published.Swap(snap); prev != nil {
		prev.superseded.Store(true)
	}
	// From here on, everything the view references is shared: bump the
	// epoch so the writer's next mutation of any shared structure copies
	// it first.
	g.epoch++
	g.frozenAt, g.frozenValid = g.version, true
	return snap
}

// Snapshot returns the latest published snapshot (nil if the graph has
// never published). An atomic load — this is the reader's pin operation and
// never blocks. Called on a frozen view, it returns that view's own
// snapshot, so code holding either a *Snapshot or its *Graph can recover
// the other.
//
//feo:frozen-safe
func (g *Graph) Snapshot() *Snapshot {
	if g.frozen {
		return g.owner
	}
	return g.published.Load()
}

// Frozen reports whether g is an immutable snapshot view.
//
//feo:frozen-safe
func (g *Graph) Frozen() bool { return g.frozen }

// dictCap returns how many dictionary entries belong to this graph value:
// everything for a live graph, the publish-time prefix for a frozen view
// (the shared dictionary may have grown since). The snapshot encoder uses
// it so serializing a pinned view stays deterministic while the writer
// interns new terms.
//
//feo:frozen-safe
func (g *Graph) dictCap() int {
	if g.frozen {
		return g.dictN
	}
	return g.dict.Len()
}

// txnRoots saves the complete pre-transaction state of a graph: the index
// and counter roots (cheap struct copies — pointers into storage, not the
// storage itself), the dictionary and namespace pointers, and the scalar
// counters. Whether restoring them is sufficient for Rollback depends on
// Txn.rootsFrozen; see the Txn doc.
type txnRoots struct {
	dict    *TermDict
	ns      *rdf.Namespaces
	spo     index
	pos     index
	osp     index
	subjN   counts
	predN   counts
	objN    counts
	n       int
	version uint64
}

// Txn is one writer transaction on a Graph: the span between Begin and
// Commit/Rollback. It owns an ordered mutation capture (the exact
// add/remove op stream, for the write-ahead log) and the saved pre-
// transaction roots. A Txn is not safe for concurrent use; the caller
// serializes writers.
//
// Begin deliberately does NOT freeze the graph: a freeze would force the
// transaction's mutations to copy every dense structure they touch, which
// is exactly the per-commit cost CommitDeferred exists to avoid. Rollback
// instead picks its strategy from what held at Begin: if the graph was
// clean since its last publish (rootsFrozen), every root structure is
// already COW-protected and restoring the saved root pointers is exact;
// otherwise the graph may have been written in place, and Rollback undoes
// the transaction by replaying its own ordered op stream in reverse with
// each op inverted (the capture records only effective mutations, so the
// inverse stream is exact). A Clear inside a dirty transaction stashes the
// pre-Clear op prefix (preClearOps) so both halves can be undone.
//
//feo:mutable-type
type Txn struct {
	g           *Graph
	cs          *ChangeSet
	prev        txnRoots
	done        bool
	rootsFrozen bool
	sawClear    bool
	preClearOps []orderedOp
}

// Begin opens a transaction and starts an ordered capture of every
// mutation (the op stream the write-ahead log consumes). Panics if a
// transaction is already open or g is a frozen view.
//
//feo:mutates
func (g *Graph) Begin() *Txn {
	if g.frozen {
		panic("store: Begin on a frozen snapshot view")
	}
	if g.txn != nil {
		panic("store: nested transaction (previous Txn not committed or rolled back)")
	}
	t := &Txn{g: g, prev: txnRoots{
		dict:    g.dict,
		ns:      g.ns.Clone(),
		spo:     g.spo,
		pos:     g.pos,
		osp:     g.osp,
		subjN:   g.subjN,
		predN:   g.predN,
		objN:    g.objN,
		n:       g.n,
		version: g.version,
	},
		rootsFrozen: g.frozenValid && g.frozenAt == g.version,
	}
	t.cs = g.StartOrderedCapture()
	g.txn = t
	return t
}

// Changes exposes the transaction's ordered capture while the transaction
// is open (and after Commit). The write-ahead log reads Ops/Cleared/
// EndVersion from it.
//
//feo:frozen-safe
func (t *Txn) Changes() *ChangeSet { return t.cs }

// Commit closes the transaction and publishes the resulting state as a new
// Snapshot (returned). Committing a transaction that made no mutations
// returns the previously published snapshot unchanged.
//
//feo:mutates
//feo:publish
func (t *Txn) Commit() *Snapshot {
	if t.done {
		panic("store: Commit on a finished transaction")
	}
	t.done = true
	t.cs.Stop()
	t.g.txn = nil
	return t.g.publish()
}

// CommitDeferred closes the transaction, retaining its mutations, without
// publishing a snapshot: the committed state becomes visible to new pins
// only at the next Publish. This is the fast path for write bursts — a
// publish freezes every structure the snapshot shares with the live graph,
// so the writer's next commit pays copy-on-write for each dense structure
// it touches (the count vectors and outer index levels are O(dictionary)
// memcpys). Deferring lets N back-to-back commits share one freeze, paid
// only when a reader actually pins in between. Isolation is unaffected:
// pinned snapshots only ever expose published states, and everything they
// share stays frozen.
//
//feo:mutates
//feo:publish
func (t *Txn) CommitDeferred() {
	if t.done {
		panic("store: CommitDeferred on a finished transaction")
	}
	t.done = true
	t.cs.Stop()
	t.g.txn = nil
}

// Rollback closes the transaction and restores the graph to its state at
// Begin: triples, counters, and namespaces all revert (terms interned
// during the transaction may remain in the dictionary; they are
// unreferenced and harmless, since the dictionary is append-only anyway).
// Published snapshots are unaffected (nothing was published since Begin).
// The mutation version stays monotonic — it never goes backwards, so any
// version value observed mid-transaction is permanently retired. Other
// captures active across the rollback are invalidated (Cleared reports
// true), since mutations they recorded have been undone; consumers fall
// back to whole-graph processing, exactly as after Clear.
//
//feo:mutates
func (t *Txn) Rollback() {
	if t.done {
		panic("store: Rollback on a finished transaction")
	}
	t.done = true
	t.cs.Stop()
	g := t.g
	g.txn = nil
	if g.version == t.prev.version {
		// No effective triple mutation; only namespaces could have moved.
		g.ns = t.prev.ns
		return
	}
	frozenAfter := false
	switch {
	case t.rootsFrozen:
		// The graph was clean at Begin: every root structure was frozen, so
		// in-transaction mutations copied before writing and the saved
		// roots still hold the exact Begin state (across Clear too).
		t.restoreRoots()
		frozenAfter = true
	case t.sawClear:
		// Clear swapped in fresh structures, so the saved roots survived
		// the post-Clear half of the transaction; the pre-Clear half may
		// have written into them in place — undo exactly those ops.
		t.restoreRoots()
		g.inverseApply(t.preClearOps)
	default:
		// Dirty graph, no Clear: the op stream is the precise effective
		// delta since Begin; invert it newest-first.
		g.inverseApply(t.cs.ops)
		g.ns = t.prev.ns
	}
	// Retire every version value handed out during the transaction so
	// version-keyed caches can never alias rolled-back state.
	g.version++
	g.frozenValid = frozenAfter
	if frozenAfter {
		g.frozenAt = g.version
	}
	for _, cs := range g.captures {
		cs.invalidate(g.dict)
	}
}

// restoreRoots puts the saved pre-transaction roots back. Only valid when
// the root structures were not written in place during the transaction
// (rootsFrozen), or when any such writes are subsequently undone by
// inverseApply (the sawClear path).
//
//feo:mutates
func (t *Txn) restoreRoots() {
	g := t.g
	g.dict = t.prev.dict
	g.ns = t.prev.ns
	g.spo = t.prev.spo
	g.pos = t.prev.pos
	g.osp = t.prev.osp
	g.subjN = t.prev.subjN
	g.predN = t.prev.predN
	g.objN = t.prev.objN
	g.n = t.prev.n
}

// inverseApply undoes an ordered op stream: ops replay newest-first with
// their sense inverted, through the normal mutation chokepoints, so
// counters, copy-on-write, and remaining captures stay consistent. The
// capture recorded only effective mutations, so every inverse op is
// effective and the replay restores the exact prior triple set.
//
//feo:mutates
func (g *Graph) inverseApply(ops []orderedOp) {
	for i := len(ops) - 1; i >= 0; i-- {
		op := ops[i]
		if op.remove {
			g.addIDs(op.t.S, op.t.P, op.t.O)
		} else {
			g.removeIDs(op.t.S, op.t.P, op.t.O)
		}
	}
}
