package store

import (
	"sync"
	"sync/atomic"
)

// Memo is a concurrent key/value table of state derived from one version
// of one Graph value; the SPARQL engine keeps its compiled BGP plans here.
//
// Lifetime contract: a memo hangs off the Graph value it was derived from,
// tagged with that value's Version and the caller's generation (see
// Graph.Memo). A frozen view's memo lives exactly as long as the view and
// is reclaimed together with it once the last pin is dropped; a live
// graph's memo is replaced at the first lookup after Version moved. Values
// stored here must reference no graph version but their own, or they
// would keep that version reachable. A memo never changes what a read of
// its graph returns, which is why a frozen view may carry one.
//
// All methods are safe for concurrent use; Len may undercount entries
// stored while a Clear runs.
type Memo struct {
	version uint64
	gen     uint64
	m       sync.Map
	n       atomic.Int32
}

// Load returns the value stored under key, if any.
func (m *Memo) Load(key any) (any, bool) { return m.m.Load(key) }

// LoadOrStore returns the value already stored under key (loaded true), or
// stores and returns val.
func (m *Memo) LoadOrStore(key, val any) (actual any, loaded bool) {
	actual, loaded = m.m.LoadOrStore(key, val)
	if !loaded {
		m.n.Add(1)
	}
	return actual, loaded
}

// Len returns the number of stored entries.
func (m *Memo) Len() int { return int(m.n.Load()) }

// Clear empties the table.
func (m *Memo) Clear() {
	m.m.Clear()
	m.n.Store(0)
}

// Memo returns g's memo table for generation gen. It makes a fresh one
// when g has none yet, when g's Version moved since the current one was
// made, or when gen differs (bumping its generation lets a caller discard
// every table it filled without reaching the graphs that hold them). An
// atomic load on a hit and a CAS on a miss, so it is safe on frozen views
// and from any number of readers.
//
//feo:frozen-safe
func (g *Graph) Memo(gen uint64) *Memo {
	for {
		m := g.memo.Load()
		if m != nil && m.version == g.version && m.gen == gen {
			return m
		}
		fresh := &Memo{version: g.version, gen: gen}
		if g.memo.CompareAndSwap(m, fresh) {
			return fresh
		}
	}
}
