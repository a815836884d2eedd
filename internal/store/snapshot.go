package store

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/rdf"
)

// Binary graph snapshots.
//
// AppendSnapshot serializes a Graph — term dictionary, namespaces, mutation
// version, and both permutation indexes with their roaring containers —
// into a compact binary form that ReadSnapshot loads back in time
// proportional to the file size: the dictionary streams in ID order (one
// hash per term, exactly like the original interning), the indexes
// deserialize container-by-container without a single triple-level insert,
// and the per-position counts are summed from index levels during the walk.
// Loading therefore skips everything that makes text parsing slow:
// tokenizing, IRI resolution, per-triple index maintenance, and container
// growth/conversion churn.
//
// Uvarints, strings, terms and the prefix table use the byte encoding of
// package rdf (rdf.Encoder, rdf.Decoder). The layout:
//
//	uvarint(format version) uvarint(graph version)
//	uvarint(n) n × term                         dictionary, in ID order
//	prefixes                                    the namespace table
//	index index                                 SPO, POS
//
//	index      uvarint(levels), levels × { uvarint(a) uvarint(k) k × { uvarint(b) set } }
//	set        uvarint(c), c × { uvarint(key) container }
//	container  0 uvarint(n) n × uint16 LE       sorted array, 1 ≤ n ≤ arrMaxLen
//	         | 1 bitmapWords × uint64 LE        bitmap, more than arrMaxLen members
//
// The writer emits outer keys, inner keys, container keys and array
// values in ascending order.
//
// Format 1 wrote a third index, OSP, after POS. ReadSnapshot still loads
// such a file: the OSP section gets the same structural checks as the
// other two, its cardinality must match, and it is then discarded.
//
// The format is versioned (snapshotFormatVersion) and deterministic: index
// levels are written in sorted ID order, so the same graph always produces
// byte-identical output — which is what lets the durability layer checksum
// snapshots and compare them across machines.
//
// The snapshot carries no integrity trailer of its own; the durability
// layer (internal/durable) frames it with a checksum. ReadSnapshot still
// validates structure — kind bytes, ID bounds against the dictionary, key
// order, container forms and thresholds, set cardinalities and trailing
// bytes — so a corrupt snapshot fails loudly instead of building an
// inconsistent graph.

// snapshotFormatVersion identifies the snapshot encoding. Bump on any
// incompatible layout change; ReadSnapshot reads this version and format 1
// and rejects any other.
const snapshotFormatVersion = 2

// AppendSnapshot appends the graph in the binary snapshot format to buf
// and returns the extended buffer. Calling it on a frozen snapshot view
// is safe concurrently with the live writer (that is how a compaction
// serializes off the write lock): the view's COW storage is immutable and
// the dictionary is truncated to the publish-time prefix, so the output
// is deterministic.
//
//feo:frozen-safe
//feo:emit
func (g *Graph) AppendSnapshot(buf []byte) []byte {
	e := &rdf.Encoder{Buf: buf}
	e.Uvarint(snapshotFormatVersion)
	e.Uvarint(g.version)
	terms := g.dict.snapshotTerms()[:g.dictCap()]
	e.Uvarint(uint64(len(terms)))
	for _, t := range terms {
		reserve(e, len(t.Value)+len(t.Datatype)+len(t.Lang)+4*binary.MaxVarintLen64)
		e.Term(t)
	}
	e.Namespaces(g.ns)
	appendIndex(e, &g.spo)
	appendIndex(e, &g.pos)
	return e.Buf
}

// readSnapshotInto decodes a snapshot into a freshly constructed (still
// empty) graph.
//
//feo:mutates
func (g *Graph) readSnapshotInto(data []byte) error {
	d := rdf.NewDecoder(data)
	ver := d.Uvarint()
	if d.Err() == nil && ver != snapshotFormatVersion && ver != 1 {
		return fmt.Errorf("store: unsupported snapshot format version %d", ver)
	}
	g.version = d.Uvarint()
	readDict(d, g.dict)
	d.Namespaces(g.ns)
	// The per-position counts and the triple total are redundant with the
	// indexes, so the snapshot does not store them: readIndex sums them.
	nTerms := uint64(g.dict.Len())
	g.n = readIndex(d, &g.spo, nTerms, nil)
	if n := readIndex(d, &g.pos, nTerms, &g.objN); d.Err() == nil && n != g.n {
		d.Fail("index cardinalities disagree (spo=%d pos=%d)", g.n, n)
	}
	if ver == 1 { // format 1's OSP section: validated, then dropped
		if n := readIndex(d, &index{}, nTerms, nil); d.Err() == nil && n != g.n {
			d.Fail("index cardinalities disagree (spo=%d osp=%d)", g.n, n)
		}
	}
	if rest := len(d.Rest()); rest != 0 {
		d.Fail("%d trailing bytes", rest)
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("store: corrupt snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot reads a graph previously written by AppendSnapshot; data
// must hold exactly one snapshot. The returned graph is fully indexed and
// ready for reads and further mutation; its Version matches the
// snapshotted graph's. It keeps no reference to data.
//
//feo:fresh
func ReadSnapshot(data []byte) (*Graph, error) {
	g := New()
	if err := g.readSnapshotInto(data); err != nil {
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

// maxContainerBytes bounds the encoding of one container: its key, its
// form byte, and a bitmap or a full array with its length.
const maxContainerBytes = 2*binary.MaxVarintLen64 + 1 + 8*bitmapWords

// reserve makes room for n more bytes, doubling e's buffer from 4 KiB
// when it runs short. A large snapshot then leaves about its own size in
// outgrown buffers; append's 1.25× steps would leave about four times
// it, and a compaction's peak RSS shows the difference.
func reserve(e *rdf.Encoder, n int) {
	if cap(e.Buf)-len(e.Buf) < n {
		buf := make([]byte, len(e.Buf), max(2*cap(e.Buf), len(e.Buf)+n, 4<<10))
		copy(buf, e.Buf)
		e.Buf = buf
	}
}

// appendIndex writes idx in the order its levels walk: ascending outer
// keys, then ascending inner keys.
func appendIndex(e *rdf.Encoder, idx *index) {
	e.Uvarint(uint64(idx.nonZero()))
	idx.each(func(a ID, l *lvl2) bool {
		e.Uvarint(uint64(a))
		e.Uvarint(uint64(l.keyCount()))
		return l.each(func(b ID, set *IDSet) bool {
			reserve(e, (len(set.cs)+1)*maxContainerBytes)
			e.Uvarint(uint64(b))
			appendSet(e, set)
			return true
		})
	})
}

func appendSet(e *rdf.Encoder, s *IDSet) {
	e.Uvarint(uint64(len(s.cs)))
	for i := range s.cs {
		c := &s.cs[i]
		e.Uvarint(uint64(s.keys[i]))
		if c.bmp != nil {
			e.Byte(1)
			for _, w := range c.bmp {
				e.Buf = binary.LittleEndian.AppendUint64(e.Buf, w)
			}
			continue
		}
		e.Byte(0)
		e.Uvarint(uint64(len(c.arr)))
		for _, v := range c.arr {
			e.Buf = binary.LittleEndian.AppendUint16(e.Buf, v)
		}
	}
}

// ---- decoder ----

// readDict decodes the dictionary section into dict, the empty dictionary
// of a fresh graph: the terms are appended, published once, and entered
// into the map under one lock. A term that appears twice fails the
// decode.
//
//feo:mutates
func readDict(d *rdf.Decoder, dict *TermDict) {
	n := d.Count(2, "term") // kind byte + value length
	if d.Err() != nil {
		return
	}
	dict.grow(n)
	start := len(dict.terms)
	for i := 0; i < n; i++ {
		t := d.Term()
		if d.Err() != nil {
			dict.terms = dict.terms[:start]
			return
		}
		// Beyond the published length: no reader sees it until publish.
		dict.terms = append(dict.terms, t)
	}
	dict.publish()
	dict.mu.Lock()
	defer dict.mu.Unlock()
	for i, t := range dict.terms[start:] {
		if _, dup := dict.ids[t]; dup {
			d.Fail("duplicate term at ID %d", i)
			return
		}
		dict.ids[t] = ID(start + i)
	}
}

// readIndex decodes one index section into idx and returns its triple
// count. Each level records the triples under its leading ID; inner, when
// not nil, receives the triples under each second-position ID (POS's
// middle level counts the objects). The ascending inner keys of a level
// fill its runs in order, runMax keys each, sliced from one pair of
// arrays.
//
//feo:mutates
func readIndex(d *rdf.Decoder, idx *index, nTerms uint64, inner *pages[int32]) (total int) {
	checkID := func(v uint64) ID {
		if v >= nTerms {
			d.Fail("index ID %d out of dictionary range %d", v, nTerms)
		}
		return ID(v)
	}
	// An outer level is at least a key and an inner count; an inner entry
	// at least a key, a container count, a container key and a form byte.
	// More keys than terms cannot pass the range, duplicate and order checks.
	nOuter := d.Count(2, "outer key")
	for i := 0; i < nOuter && d.Err() == nil; i++ {
		a := checkID(d.Uvarint())
		nInner := d.Count(4, "inner key")
		if d.Err() != nil {
			return
		}
		if nInner == 0 {
			d.Fail("empty index level %d", a)
			return
		}
		if idx.level(a) != nil {
			d.Fail("duplicate outer key %d", a)
			return
		}
		keys := make([]ID, nInner)
		sets := make([]*IDSet, nInner)
		l := &lvl2{runs: make([]run, 0, (nInner+runMax-1)/runMax)}
		for j := 0; j < nInner; j++ {
			// Ascending inner keys rule out a repeated one, which would
			// replace a set that the other two indexes still count.
			b := checkID(d.Uvarint())
			if j > 0 && b <= keys[j-1] {
				d.Fail("inner keys out of order at index level %d (%d after %d)", a, b, keys[j-1])
			}
			set := readSet(d, nTerms)
			if d.Err() != nil {
				return
			}
			k := set.Len()
			if k == 0 {
				d.Fail("empty set at index level (%d,%d)", a, b)
				return
			}
			keys[j], sets[j] = b, set
			l.n += k
			if inner != nil {
				*inner.slot(0, b) += int32(k)
			}
		}
		for lo := 0; lo < nInner; lo += runMax {
			hi := min(lo+runMax, nInner)
			l.runs = append(l.runs, run{keys: keys[lo:hi:hi], sets: sets[lo:hi:hi]})
		}
		*idx.slot(0, a) = l
		total += l.n
	}
	return total
}

func readSet(d *rdf.Decoder, nTerms uint64) *IDSet {
	s := NewIDSet()
	// A container is at least a key, a form byte, a length and one value.
	nc := d.Count(4, "container")
	s.keys = make([]uint16, 0, nc)
	s.cs = make([]container, 0, nc)
	prevKey := -1
	for i := 0; i < nc; i++ {
		key := d.Uvarint()
		if key > 1<<16-1 {
			d.Fail("container key %d exceeds bound %d", key, 1<<16-1)
		} else if int(key) <= prevKey {
			d.Fail("container keys out of order (%d after %d)", key, prevKey)
		}
		form := d.Byte()
		if d.Err() != nil {
			return s
		}
		prevKey = int(key)
		var c container
		maxLow := -1 // the container's largest member
		switch form {
		case 0: // sorted array
			n := d.Count(2, "array container")
			if n == 0 || n > arrMaxLen {
				d.Fail("array container of %d members outside 1..%d", n, arrMaxLen)
				return s
			}
			buf := d.Next(2 * n)
			if d.Err() != nil {
				return s
			}
			c.arr = make([]uint16, n)
			for k := range c.arr {
				v := binary.LittleEndian.Uint16(buf[2*k:])
				if int(v) <= maxLow {
					d.Fail("array container values out of order")
					return s
				}
				maxLow = int(v)
				c.arr[k] = v
			}
			c.n = n
		case 1: // bitmap
			buf := d.Next(8 * bitmapWords)
			if d.Err() != nil {
				return s
			}
			c.bmp = new([bitmapWords]uint64)
			for w := range c.bmp {
				word := binary.LittleEndian.Uint64(buf[8*w:])
				c.bmp[w] = word
				c.n += bits.OnesCount64(word)
				if word != 0 {
					maxLow = w<<6 + 63 - bits.LeadingZeros64(word)
				}
			}
			if c.n <= arrMaxLen {
				d.Fail("bitmap container below array threshold (%d members)", c.n)
				return s
			}
		default:
			d.Fail("unknown container form %d", form)
			return s
		}
		if top := key<<containerBits + uint64(maxLow); top >= nTerms {
			d.Fail("set member %d out of dictionary range %d", top, nTerms)
			return s
		}
		s.keys = append(s.keys, uint16(key))
		s.cs = append(s.cs, c)
		s.n += c.n
	}
	return s
}
