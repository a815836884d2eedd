package store

// The index layout: paged outer levels, sorted middle levels.
//
// Each permutation index (SPO, POS) maps a leading ID to a middle level
// (lvl2) through a paged vector (pages), and each middle level maps a
// second ID to the innermost bitmap set. The object counts are a paged
// vector too. Every structure carries the COW epoch it was last privately
// writable at (see the package doc), and the unit a writer copies after a
// publish is the unit it touches:
//
//   - pages: the directory (one pointer per pageLen IDs) and the one page
//     that holds the written ID;
//   - lvl2: the run headers (one per runMax keys) and the keys and sets
//     of the one run that holds the written key;
//   - IDSet: its container headers (bitset.go's cowClone).
//
// So a commit's freeze costs what the commit wrote, not what the graph
// or the level holds.

const (
	// pageBits sets the page size of the outer index levels and the
	// object counts: 512 entries, a 4 KiB page of level pointers.
	pageBits = 9
	pageLen  = 1 << pageBits
	pageMask = pageLen - 1

	// runMax caps the keys of one run of a middle level. A write copies
	// at most one run; an insert moves at most runMax entries.
	runMax = 128
)

// page is one fixed-size block of a paged vector.
type page[T comparable] struct {
	epoch uint64
	v     [pageLen]T
}

// pages is a vector indexed by ID, stored as a directory of pages; a nil
// page reads as zero entries.
//
//feo:mutable-type
type pages[T comparable] struct {
	epoch uint64
	dir   []*page[T]
}

// get returns the entry of id, or the zero value. Safe on any ID and on
// shared/frozen vectors.
func (p *pages[T]) get(id ID) T {
	if pi := int(id >> pageBits); pi < len(p.dir) {
		if pg := p.dir[pi]; pg != nil {
			return pg.v[id&pageMask]
		}
	}
	var zero T
	return zero
}

// slot returns id's entry writable at epoch: the directory and the page
// are copied first when they predate epoch, and the directory grows or the
// page is allocated when id is beyond them.
//
//feo:mutates
func (p *pages[T]) slot(epoch uint64, id ID) *T {
	pi := int(id >> pageBits)
	if p.epoch != epoch {
		dir := make([]*page[T], max(len(p.dir), pi+1))
		copy(dir, p.dir)
		p.dir, p.epoch = dir, epoch
	} else if pi >= len(p.dir) {
		p.dir = append(p.dir, make([]*page[T], pi+1-len(p.dir))...)
	}
	pg := p.dir[pi]
	switch {
	case pg == nil:
		pg = &page[T]{epoch: epoch}
		p.dir[pi] = pg
	case pg.epoch != epoch:
		pg = &page[T]{epoch: epoch, v: pg.v}
		p.dir[pi] = pg
	}
	return &pg.v[id&pageMask]
}

// each calls fn for every non-zero entry in ascending ID order until fn
// returns false, and reports whether it ran to the end.
func (p *pages[T]) each(fn func(id ID, v T) bool) bool {
	var zero T
	for pi, pg := range p.dir {
		if pg == nil {
			continue
		}
		for j, v := range pg.v[:] {
			if v != zero && !fn(ID(pi<<pageBits|j), v) {
				return false
			}
		}
	}
	return true
}

// nonZero counts the non-zero entries.
func (p *pages[T]) nonZero() int {
	n := 0
	p.each(func(ID, T) bool { n++; return true })
	return n
}

// clone returns a private copy, every entry passed through f.
//
//feo:fresh
func (p *pages[T]) clone(f func(T) T) pages[T] {
	var out pages[T]
	p.each(func(id ID, v T) bool {
		*out.slot(0, id) = f(v)
		return true
	})
	return out
}

// run is a block of consecutive keys of a middle level with their sets.
type run struct {
	epoch uint64 // when keys and sets were last privately writable
	keys  []ID   // ascending
	sets  []*IDSet
}

// lvl2 is the middle level of one permutation index: the second IDs under
// one leading ID, ascending, split into runs of at most runMax keys, with
// the number of triples under the leading ID. A non-nil level holds at
// least one run and no run is empty.
type lvl2 struct {
	epoch uint64
	n     int
	runs  []run
}

// runFor returns the index of the run that holds b or would hold it: the
// last run whose first key is at most b, or the first run.
func (l *lvl2) runFor(b ID) int {
	lo, hi := 1, len(l.runs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if l.runs[m].keys[0] <= b {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo - 1
}

// search returns the position of b in keys and whether it is there.
func search(keys []ID, b ID) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if keys[m] < b {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(keys) && keys[lo] == b
}

// get returns the set under b, or nil. Safe on a nil level.
func (l *lvl2) get(b ID) *IDSet {
	if l == nil {
		return nil
	}
	r := &l.runs[l.runFor(b)]
	if i, ok := search(r.keys, b); ok {
		return r.sets[i]
	}
	return nil
}

// keyCount returns the number of second IDs in the level.
func (l *lvl2) keyCount() int {
	n := 0
	for i := range l.runs {
		n += len(l.runs[i].keys)
	}
	return n
}

// each calls fn for every (key, set) of the level in ascending key order
// until fn returns false, and reports whether it ran to the end. Safe on
// a nil level. fn may write under the level (the reasoner's rules add
// triples from inside their walks): the walk then finds b again and goes
// on after it, so every key present throughout is visited exactly once.
func (l *lvl2) each(fn func(b ID, set *IDSet) bool) bool {
	if l == nil {
		return true
	}
	n := l.n
	for ri, j := 0, 0; ri < len(l.runs); ri, j = ri+1, 0 {
		for ; j < len(l.runs[ri].keys); j++ {
			r := &l.runs[ri]
			b := r.keys[j]
			if !fn(b, r.sets[j]) {
				return false
			}
			if l.n != n {
				n = l.n
				if len(l.runs) == 0 {
					return true
				}
				var found bool
				ri = l.runFor(b)
				if j, found = search(l.runs[ri].keys, b); !found {
					j--
				}
			}
		}
	}
	return true
}

// setSlot returns the slot of b's set, writable at epoch, inserting a nil
// slot when b is new. The level itself must already be writable at epoch;
// the run is copied first when it predates epoch. A full run takes a new
// run after it when b lands past the level's end and splits in half
// otherwise.
//
//feo:mutates
func (l *lvl2) setSlot(epoch uint64, b ID) **IDSet {
	if len(l.runs) == 0 {
		l.runs = append(l.runs, run{epoch: epoch})
	}
	ri := l.runFor(b)
	r := &l.runs[ri]
	i, found := search(r.keys, b)
	if r.epoch != epoch {
		r.keys = append(make([]ID, 0, len(r.keys)+1), r.keys...)
		r.sets = append(make([]*IDSet, 0, len(r.sets)+1), r.sets...)
		r.epoch = epoch
	}
	if found {
		return &r.sets[i]
	}
	if len(r.keys) >= runMax {
		if ri == len(l.runs)-1 && i == len(r.keys) {
			l.runs = append(l.runs, run{epoch: epoch, keys: []ID{b}, sets: []*IDSet{nil}})
			return &l.runs[ri+1].sets[0]
		}
		half := len(r.keys) / 2
		right := run{
			epoch: epoch,
			keys:  append(make([]ID, 0, runMax), r.keys[half:]...),
			sets:  append(make([]*IDSet, 0, runMax), r.sets[half:]...),
		}
		clear(r.sets[half:])
		r.keys, r.sets = r.keys[:half], r.sets[:half]
		l.runs = append(l.runs, run{})
		copy(l.runs[ri+2:], l.runs[ri+1:])
		l.runs[ri+1] = right
		if i > half {
			ri, i = ri+1, i-half
		}
		r = &l.runs[ri]
	}
	r.keys = append(r.keys, 0)
	copy(r.keys[i+1:], r.keys[i:])
	r.keys[i] = b
	r.sets = append(r.sets, nil)
	copy(r.sets[i+1:], r.sets[i:])
	r.sets[i] = nil
	return &r.sets[i]
}

// drop removes key b, which must be present, writable at epoch like
// setSlot, and drops its run when that empties.
//
//feo:mutates
func (l *lvl2) drop(epoch uint64, b ID) {
	ri := l.runFor(b)
	r := &l.runs[ri]
	i, _ := search(r.keys, b)
	if len(r.keys) == 1 {
		copy(l.runs[ri:], l.runs[ri+1:])
		l.runs[len(l.runs)-1] = run{}
		l.runs = l.runs[:len(l.runs)-1]
		return
	}
	if r.epoch != epoch {
		r.keys = append([]ID(nil), r.keys...)
		r.sets = append([]*IDSet(nil), r.sets...)
		r.epoch = epoch
	}
	copy(r.keys[i:], r.keys[i+1:])
	r.keys = r.keys[:len(r.keys)-1]
	copy(r.sets[i:], r.sets[i+1:])
	r.sets[len(r.sets)-1] = nil
	r.sets = r.sets[:len(r.sets)-1]
}

// clone returns a private deep copy of the level.
//
//feo:fresh
func (l *lvl2) clone() *lvl2 {
	out := &lvl2{n: l.n, runs: make([]run, len(l.runs))}
	for i, r := range l.runs {
		sets := make([]*IDSet, len(r.sets))
		for j, s := range r.sets {
			sets[j] = s.Clone()
		}
		out.runs[i] = run{keys: append([]ID(nil), r.keys...), sets: sets}
	}
	return out
}

// index is one permutation index: a paged vector over the first position
// (indexed directly by ID), a sorted middle level over the second, a
// bitmap set (see bitset.go) over the third. A missing level reads as nil;
// every read-only IDSet method treats a nil *IDSet as the empty set.
//
//feo:mutable-type
type index struct {
	pages[*lvl2]
}

// get returns the innermost set for (a, b), or nil. Safe on any ID
// (including NoID) and on shared/frozen structures.
func (ix *index) get(a, b ID) *IDSet {
	return ix.pages.get(a).get(b)
}

// level returns the middle level of leading ID a, or nil. Read-only.
func (ix *index) level(a ID) *lvl2 {
	return ix.pages.get(a)
}

// countOf returns the number of triples under leading ID a.
func (ix *index) countOf(a ID) int {
	if l := ix.level(a); l != nil {
		return l.n
	}
	return 0
}
