package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"sort"

	"repro/internal/rdf"
)

// Binary graph snapshots.
//
// WriteSnapshot serializes a Graph — term dictionary, namespaces, mutation
// version, and all three permutation indexes with their roaring containers —
// into a compact binary form that ReadSnapshot loads back in time
// proportional to the file size: the dictionary streams in ID order (one
// hash per term, exactly like the original interning), the indexes
// deserialize container-by-container without a single triple-level insert,
// and the per-position counts are summed from index levels during the walk.
// Loading therefore skips everything that makes text parsing slow:
// tokenizing, IRI resolution, per-triple index maintenance, and container
// growth/conversion churn.
//
// The format is versioned (snapshotFormatVersion) and deterministic: index
// levels are written in sorted ID order, so the same graph always produces
// byte-identical output — which is what lets the durability layer checksum
// snapshots and compare them across machines.
//
// The snapshot carries no integrity trailer of its own; the durability
// layer (internal/durable) frames it with a checksum. ReadSnapshot still
// validates structure — kind bytes, ID bounds against the dictionary, and
// set cardinalities — so a corrupt stream fails loudly instead of building
// an inconsistent graph.

// snapshotFormatVersion identifies the snapshot encoding. Bump on any
// incompatible layout change; ReadSnapshot rejects versions it predates.
const snapshotFormatVersion = 1

// WriteSnapshot writes the graph in the binary snapshot format. Calling it
// on a frozen snapshot view is safe concurrently with the live writer
// (that is how a compaction serializes off the write lock): the view's
// COW storage is immutable and the dictionary is truncated to the
// publish-time prefix, so the output is deterministic.
//
//feo:frozen-safe
//feo:emit
func (g *Graph) WriteSnapshot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	e := &snapEncoder{w: bw}
	e.uvarint(snapshotFormatVersion)
	e.uvarint(g.version)
	e.writeDict(g.dict, g.dictCap())
	e.writeNamespaces(g.ns)
	e.writeIndex(&g.spo)
	e.writeIndex(&g.pos)
	e.writeIndex(&g.osp)
	if e.err != nil {
		return e.err
	}
	return bw.Flush()
}

// readSnapshotInto decodes a snapshot stream into a freshly constructed
// (still empty) graph.
//
//feo:mutates
func (g *Graph) readSnapshotInto(r io.Reader) error {
	d := &snapDecoder{r: bufio.NewReader(r)}
	ver := d.uvarint()
	if d.err == nil && ver != snapshotFormatVersion {
		return fmt.Errorf("store: unsupported snapshot format version %d", ver)
	}
	g.version = d.uvarint()
	d.readDict(g.dict)
	d.readNamespaces(g.ns)
	nTerms := uint64(g.dict.Len())
	d.readIndex(&g.spo, nTerms)
	d.readIndex(&g.pos, nTerms)
	d.readIndex(&g.osp, nTerms)
	if d.err != nil {
		return d.err
	}
	// Derive the per-position counts and the triple total from the loaded
	// index levels; they are redundant with the indexes, so the snapshot
	// does not store them.
	n := deriveCounts(&g.spo, &g.subjN, int(nTerms))
	g.n = n
	nPOS := deriveCounts(&g.pos, &g.predN, int(nTerms))
	nOSP := deriveCounts(&g.osp, &g.objN, int(nTerms))
	if nPOS != n || nOSP != n {
		return fmt.Errorf("store: snapshot index cardinalities disagree (spo=%d pos=%d osp=%d)", n, nPOS, nOSP)
	}
	return nil
}

// deriveCounts fills one per-position counter vector from a loaded index
// and returns the total cardinality.
//
//feo:mutates
func deriveCounts(ix *index, cnt *counts, nTerms int) int {
	cnt.v = make([]int32, nTerms)
	total := 0
	for ai, l := range ix.s {
		if l == nil {
			continue
		}
		c := 0
		//feo:unordered // summation; order-insensitive
		for _, set := range l.m {
			c += set.Len()
		}
		cnt.v[ai] = int32(c)
		total += c
	}
	return total
}

// ReadSnapshot reads a graph previously written by WriteSnapshot. The
// returned graph is fully indexed and ready for reads and further mutation;
// its Version matches the snapshotted graph's.
//
//feo:fresh
func ReadSnapshot(r io.Reader) (*Graph, error) {
	g := New()
	if err := g.readSnapshotInto(r); err != nil {
		return nil, err
	}
	return g, nil
}

// ForceVersion raises the graph's mutation version to v. It never lowers
// the version: Version is monotonic by contract, and consumers key caches
// on it. The durability layer uses this during write-ahead-log replay so a
// recovered graph reports exactly the version its acknowledged mutations
// reached, keeping the plan cache's and the reasoner's version-keyed
// invariants intact across a restart.
//
//feo:mutates
func (g *Graph) ForceVersion(v uint64) {
	if v > g.version {
		g.version = v
	}
}

// ---- encoder ----

type snapEncoder struct {
	w   *bufio.Writer
	buf [binary.MaxVarintLen64]byte
	err error
}

func (e *snapEncoder) uvarint(v uint64) {
	if e.err != nil {
		return
	}
	n := binary.PutUvarint(e.buf[:], v)
	_, e.err = e.w.Write(e.buf[:n])
}

func (e *snapEncoder) str(s string) {
	e.uvarint(uint64(len(s)))
	if e.err == nil {
		_, e.err = e.w.WriteString(s)
	}
}

func (e *snapEncoder) term(t rdf.Term) {
	if e.err != nil {
		return
	}
	e.err = e.w.WriteByte(byte(t.Kind))
	e.str(t.Value)
	if t.Kind == rdf.KindLiteral {
		e.str(t.Datatype)
		e.str(t.Lang)
	}
}

func (e *snapEncoder) writeDict(d *TermDict, n int) {
	terms := d.snapshotTerms()[:n]
	e.uvarint(uint64(len(terms)))
	for _, t := range terms {
		e.term(t)
	}
}

func (e *snapEncoder) writeNamespaces(ns *rdf.Namespaces) {
	prefixes := ns.Prefixes() // sorted
	e.uvarint(uint64(len(prefixes)))
	for _, p := range prefixes {
		iri, _ := ns.IRIFor(p)
		e.str(p)
		e.str(iri)
	}
	e.str(ns.Base())
}

func (e *snapEncoder) writeIndex(idx *index) {
	// The outer level iterates in ascending ID order by construction, so
	// the byte layout matches the sorted-map encoding this replaced.
	e.uvarint(uint64(idx.levels()))
	for ai, l := range idx.s {
		if l == nil {
			continue
		}
		inner := make([]ID, 0, len(l.m))
		for b := range l.m {
			inner = append(inner, b)
		}
		sort.Slice(inner, func(i, j int) bool { return inner[i] < inner[j] })
		e.uvarint(uint64(ai))
		e.uvarint(uint64(len(inner)))
		for _, b := range inner {
			e.uvarint(uint64(b))
			e.writeSet(l.m[b])
		}
	}
}

func (e *snapEncoder) writeSet(s *IDSet) {
	e.uvarint(uint64(len(s.cs)))
	for i := range s.cs {
		c := &s.cs[i]
		e.uvarint(uint64(s.keys[i]))
		if c.bmp != nil {
			if e.err == nil {
				e.err = e.w.WriteByte(1)
			}
			var word [8]byte
			for _, w := range c.bmp {
				binary.LittleEndian.PutUint64(word[:], w)
				if e.err == nil {
					_, e.err = e.w.Write(word[:])
				}
			}
			continue
		}
		if e.err == nil {
			e.err = e.w.WriteByte(0)
		}
		e.uvarint(uint64(len(c.arr)))
		var b [2]byte
		for _, v := range c.arr {
			binary.LittleEndian.PutUint16(b[:], v)
			if e.err == nil {
				_, e.err = e.w.Write(b[:])
			}
		}
	}
}

// ---- decoder ----

type snapDecoder struct {
	r   *bufio.Reader
	err error
}

func (d *snapDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("store: corrupt snapshot: "+format, args...)
	}
}

func (d *snapDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		d.err = fmt.Errorf("store: corrupt snapshot: %w", err)
	}
	return v
}

// length reads a collection length and bounds it against max so a corrupt
// count fails fast instead of allocating gigabytes.
func (d *snapDecoder) length(max uint64, what string) int {
	v := d.uvarint()
	if d.err == nil && v > max {
		d.fail("%s count %d exceeds bound %d", what, v, max)
	}
	if d.err != nil {
		return 0
	}
	return int(v)
}

const maxSnapshotStr = 64 << 20 // no single term string exceeds 64 MiB

func (d *snapDecoder) str() string {
	n := d.length(maxSnapshotStr, "string length")
	if d.err != nil || n == 0 {
		return ""
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(d.r, b); err != nil {
		d.fail("%v", err)
		return ""
	}
	return string(b)
}

func (d *snapDecoder) term() rdf.Term {
	kind, err := d.r.ReadByte()
	if err != nil {
		d.fail("%v", err)
		return rdf.Term{}
	}
	t := rdf.Term{Kind: rdf.TermKind(kind)}
	switch t.Kind {
	case rdf.KindIRI, rdf.KindBlank:
		t.Value = d.str()
	case rdf.KindLiteral:
		t.Value = d.str()
		t.Datatype = d.str()
		t.Lang = d.str()
	default:
		d.fail("invalid term kind %d", kind)
	}
	return t
}

func (d *snapDecoder) readDict(dict *TermDict) {
	n := d.length(1<<32, "term")
	if d.err == nil {
		dict.grow(n)
	}
	for i := 0; i < n && d.err == nil; i++ {
		t := d.term()
		if d.err != nil {
			return
		}
		if id := dict.Intern(t); id != ID(i) {
			d.fail("duplicate term at ID %d", i)
			return
		}
	}
}

func (d *snapDecoder) readNamespaces(ns *rdf.Namespaces) {
	n := d.length(1<<20, "namespace")
	for i := 0; i < n && d.err == nil; i++ {
		prefix := d.str()
		iri := d.str()
		if d.err == nil {
			ns.Bind(prefix, iri)
		}
	}
	if base := d.str(); d.err == nil && base != "" {
		ns.SetBase(base)
	}
}

//feo:mutates
func (d *snapDecoder) readIndex(idx *index, nTerms uint64) {
	checkID := func(v uint64) ID {
		if d.err == nil && v >= nTerms {
			d.fail("index ID %d out of dictionary range %d", v, nTerms)
		}
		return ID(v)
	}
	idx.s = make([]*lvl2, nTerms)
	nOuter := d.length(nTerms, "outer key")
	for i := 0; i < nOuter && d.err == nil; i++ {
		a := checkID(d.uvarint())
		nInner := d.length(nTerms, "inner key")
		m1 := make(map[ID]*IDSet, nInner)
		for j := 0; j < nInner && d.err == nil; j++ {
			b := checkID(d.uvarint())
			set := d.readSet(nTerms)
			if d.err != nil {
				return
			}
			if set.Len() == 0 {
				d.fail("empty set at index level (%d,%d)", a, b)
				return
			}
			m1[b] = set
		}
		if d.err == nil {
			if idx.s[a] != nil {
				d.fail("duplicate outer key %d", a)
				return
			}
			idx.s[a] = &lvl2{m: m1}
		}
	}
}

func (d *snapDecoder) readSet(nTerms uint64) *IDSet {
	s := NewIDSet()
	nc := d.length(1<<16, "container")
	s.keys = make([]uint16, 0, nc)
	s.cs = make([]container, 0, nc)
	prevKey := -1
	for i := 0; i < nc && d.err == nil; i++ {
		key := d.length(1<<16-1, "container key")
		if d.err != nil {
			return s
		}
		if key <= prevKey {
			d.fail("container keys out of order (%d after %d)", key, prevKey)
			return s
		}
		prevKey = key
		form, err := d.r.ReadByte()
		if err != nil {
			d.fail("%v", err)
			return s
		}
		var c container
		switch form {
		case 0: // sorted array
			n := d.length(arrMaxLen, "array container")
			if d.err != nil {
				return s
			}
			if n == 0 {
				d.fail("empty array container")
				return s
			}
			c.arr = make([]uint16, n)
			buf := make([]byte, 2*n)
			if _, err := io.ReadFull(d.r, buf); err != nil {
				d.fail("%v", err)
				return s
			}
			prev := -1
			for k := range c.arr {
				v := binary.LittleEndian.Uint16(buf[2*k:])
				if int(v) <= prev {
					d.fail("array container values out of order")
					return s
				}
				prev = int(v)
				c.arr[k] = v
			}
			c.n = n
		case 1: // bitmap
			c.bmp = new([bitmapWords]uint64)
			buf := make([]byte, 8*bitmapWords)
			if _, err := io.ReadFull(d.r, buf); err != nil {
				d.fail("%v", err)
				return s
			}
			for w := range c.bmp {
				word := binary.LittleEndian.Uint64(buf[8*w:])
				c.bmp[w] = word
				c.n += bits.OnesCount64(word)
			}
			if c.n <= arrMaxLen {
				d.fail("bitmap container below array threshold (%d members)", c.n)
				return s
			}
		default:
			d.fail("unknown container form %d", form)
			return s
		}
		// Bound the container's largest member against the dictionary.
		base := uint64(key) << containerBits
		var maxLow uint16
		if c.bmp != nil {
			for w := bitmapWords - 1; w >= 0; w-- {
				if c.bmp[w] != 0 {
					maxLow = uint16(w<<6 + 63 - bits.LeadingZeros64(c.bmp[w]))
					break
				}
			}
		} else {
			maxLow = c.arr[len(c.arr)-1]
		}
		if base+uint64(maxLow) >= nTerms {
			d.fail("set member %d out of dictionary range %d", base+uint64(maxLow), nTerms)
			return s
		}
		s.keys = append(s.keys, uint16(key))
		s.cs = append(s.cs, c)
		s.n += c.n
	}
	return s
}
