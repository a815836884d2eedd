package store

import "repro/internal/rdf"

// IDTriple is a dictionary-encoded triple at the store's public boundary.
// The reasoner's delta path and the change-capture log exchange these so a
// recorded mutation never has to decode (and later re-encode) its terms.
type IDTriple struct {
	S, P, O ID
}

// ChangeSet records every triple-level mutation applied to a graph between
// StartCapture and Stop, as one ordered ID-space op stream. It is the
// change-capture hook that lets layered consumers hand the reasoner an
// exact delta (core.Engine) and the write-ahead log an exact redo stream
// (the open Txn) without threading triples by hand through every parser,
// updater, and assertion site: any mutation route — Add/AddID, Bulk, Merge,
// SPARQL updates, reasoner inference — lands in the active capture because
// they all funnel through the graph's single add/remove chokepoints.
//
// The stream preserves the exact add/remove interleaving and records only
// effective mutations, so replaying it verbatim — an add that a later
// remove undoes, a remove that a later add reinstates — reproduces the
// final graph exactly.
//
// Several captures may be active on one graph at a time; each records
// independently. Captures follow the store's writer contract: starting,
// stopping, and reading a ChangeSet must not race with mutations (in
// practice the layer that serializes writers — e.g. feo.Session's write
// lock — also owns the captures).
//
// Graph.Clear marks a capture Cleared and restarts its stream against the
// replacement dictionary: the stream then holds only the post-Clear
// mutations, and a consumer must wipe first (the WAL) or fall back to
// whole-graph processing (the reasoner).
//
//feo:mutable-type
type ChangeSet struct {
	g           *Graph
	dict        *TermDict // dictionary the recorded IDs belong to
	baseVersion uint64    // graph version when capture started
	endVersion  uint64    // graph version when capture stopped
	ops         []IDOp
	cleared     bool
	active      bool
}

// IDOp is one entry of a capture's mutation stream: an addition (Remove
// false) or a removal (Remove true) of the dictionary-encoded triple T.
type IDOp struct {
	Remove bool
	T      IDTriple
}

// TermOp is one mutation of a capture, decoded to terms: an addition
// (Remove false) or a removal (Remove true) of triple T.
type TermOp struct {
	Remove bool
	T      rdf.Triple
}

// StartCapture begins recording mutations into a new ChangeSet. The caller
// must eventually Stop it; an active capture costs one slice append per
// mutation and nothing on reads.
//
//feo:mutates
func (g *Graph) StartCapture() *ChangeSet {
	if g.frozen {
		panic("store: StartCapture on a frozen snapshot view")
	}
	cs := &ChangeSet{g: g, dict: g.dict, baseVersion: g.version, active: true}
	g.captures = append(g.captures, cs)
	return cs
}

// IDOps returns the mutation stream in ID space, undecoded. The IDs belong
// to the graph's dictionary at StartCapture, or after a Clear to the
// replacement one. The returned slice is the capture's own storage;
// callers must not mutate it.
//
//feo:frozen-safe
func (cs *ChangeSet) IDOps() []IDOp { return cs.ops }

// Ops returns the mutation stream decoded to terms. For a capture that saw
// Graph.Clear, the stream holds only the post-Clear mutations (Cleared
// reports true; the consumer must wipe first). Removal never un-interns a
// term, so removed triples decode exactly. Nil when nothing was recorded.
//
//feo:frozen-safe
//feo:decodes
func (cs *ChangeSet) Ops() []TermOp {
	if len(cs.ops) == 0 {
		return nil
	}
	out := make([]TermOp, len(cs.ops))
	for i, op := range cs.ops {
		out[i] = TermOp{Remove: op.Remove, T: rdf.Triple{
			S: cs.dict.Term(op.T.S),
			P: cs.dict.Term(op.T.P),
			O: cs.dict.Term(op.T.O),
		}}
	}
	return out
}

// Stop ends recording and detaches the capture from the graph. It pins the
// end version so consumers can verify no uncaptured mutation slipped in
// after the capture closed. Stop is idempotent and nil-safe.
//
//feo:mutates
func (cs *ChangeSet) Stop() {
	if cs == nil || !cs.active {
		return
	}
	cs.active = false
	cs.endVersion = cs.g.version
	caps := cs.g.captures
	for i, c := range caps {
		if c == cs {
			cs.g.captures = append(caps[:i], caps[i+1:]...)
			break
		}
	}
}

// Active reports whether the capture is still recording.
//
//feo:frozen-safe
func (cs *ChangeSet) Active() bool { return cs != nil && cs.active }

// Graph returns the graph this capture recorded.
//
//feo:frozen-safe
func (cs *ChangeSet) Graph() *Graph { return cs.g }

// BaseVersion returns the graph version at StartCapture. A consumer that
// processed the graph up to exactly this version may treat the recorded
// triples as the complete mutation delta since then.
//
//feo:frozen-safe
func (cs *ChangeSet) BaseVersion() uint64 { return cs.baseVersion }

// EndVersion returns the graph version at Stop (or the current version
// while still active). EndVersion == Graph().Version() means no mutation
// has happened since the capture closed.
//
//feo:frozen-safe
func (cs *ChangeSet) EndVersion() uint64 {
	if cs.active {
		return cs.g.version
	}
	return cs.endVersion
}

// Cleared reports whether Graph.Clear ran during the capture. The stream
// then holds only the mutations after the last Clear.
//
//feo:frozen-safe
func (cs *ChangeSet) Cleared() bool { return cs.cleared }

// notifyAdd records a successful triple insertion into every active capture.
//
//feo:mutates
func (g *Graph) notifyAdd(s, p, o ID) {
	for _, cs := range g.captures {
		cs.ops = append(cs.ops, IDOp{T: IDTriple{s, p, o}})
	}
}

// notifyRemove records a successful triple removal into every active capture.
//
//feo:mutates
func (g *Graph) notifyRemove(s, p, o ID) {
	for _, cs := range g.captures {
		cs.ops = append(cs.ops, IDOp{Remove: true, T: IDTriple{s, p, o}})
	}
}

// notifyClear marks every active capture cleared and restarts its stream
// against the replacement dictionary (Clear has already swapped it in by
// the time this runs), so captures keep observing post-Clear mutations.
//
//feo:mutates
func (g *Graph) notifyClear() {
	for _, cs := range g.captures {
		cs.cleared = true
		cs.ops = cs.ops[:0]
		cs.dict = g.dict
	}
}
