package store

import "sync/atomic"

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
// (feo.Session): Begin starts a mutation capture whose op stream feeds the
// write-ahead log; Commit stops the capture and publishes (or
// CommitDeferred retains the state privately, letting a burst of commits
// share one freeze). There is no rollback: a transaction's mutations are
// state once they land, and the caller commits and logs them even when
// the operation that made them failed. Transactions do not nest and there
// is no writer queue — serializing writers is the caller's job, exactly as
// for plain mutations.

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

// Txn is one writer transaction on a Graph: the span between Begin and
// Commit. It owns a mutation capture (the exact add/remove op stream, for
// the write-ahead log). A Txn is not safe for concurrent use; the caller
// serializes writers.
//
// Begin deliberately does NOT freeze the graph: a freeze would force the
// transaction's mutations to copy every page, run and set they touch,
// which is exactly the per-commit cost CommitDeferred exists to avoid.
//
//feo:mutable-type
type Txn struct {
	g    *Graph
	cs   *ChangeSet
	done bool
}

// Begin opens a transaction and starts a capture of every mutation (the
// op stream the write-ahead log consumes). Panics if a transaction is
// already open or g is a frozen view.
//
//feo:mutates
func (g *Graph) Begin() *Txn {
	if g.frozen {
		panic("store: Begin on a frozen snapshot view")
	}
	if g.txn != nil {
		panic("store: nested transaction (previous Txn not committed)")
	}
	t := &Txn{g: g, cs: g.StartCapture()}
	g.txn = t
	return t
}

// Changes exposes the transaction's capture while the transaction is open
// (and after Commit). The write-ahead log reads Ops/Cleared/EndVersion
// from it.
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
// so the writer's next commit pays copy-on-write for each page, run and
// set it touches (bounded by what it writes, not by the graph's size).
// Deferring lets N back-to-back commits share one freeze, paid only when
// a reader actually pins in between. Isolation is unaffected:
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
