package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/rdf"
)

// randomGraph builds a graph whose index shapes exercise both roaring
// container forms: a dense predicate column with >arrMaxLen subjects (bitmap
// containers in POS) plus sparse random triples (array containers), mixed
// term kinds, namespaces, and some removals so version > triple count.
func randomGraph(t testing.TB, rng *rand.Rand) *Graph {
	t.Helper()
	g := New()
	g.Namespaces().Bind("ex", "http://e/")
	g.Namespaces().Bind("kg", "http://kg/")
	g.Namespaces().SetBase("http://base/")

	typ := rdf.NewIRI("http://e/type")
	cls := rdf.NewIRI("http://e/Thing")
	dense := 4200 + rng.Intn(400) // > arrMaxLen members in one POS set
	for i := 0; i < dense; i++ {
		g.Add(rdf.NewIRI(fmt.Sprintf("http://e/s%d", i)), typ, cls)
	}
	for i := 0; i < 500; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://e/s%d", rng.Intn(dense)))
		p := rdf.NewIRI(fmt.Sprintf("http://e/p%d", rng.Intn(20)))
		var o rdf.Term
		switch rng.Intn(4) {
		case 0:
			o = rdf.NewIRI(fmt.Sprintf("http://e/o%d", rng.Intn(100)))
		case 1:
			o = rdf.NewLiteral(fmt.Sprintf("lit%d", rng.Intn(50)))
		case 2:
			o = rdf.NewTypedLiteral(fmt.Sprintf("%d", rng.Intn(50)), rdf.XSDInteger)
		default:
			o = rdf.NewLangLiteral(fmt.Sprintf("text%d", rng.Intn(50)), "en")
		}
		g.Add(s, p, o)
	}
	// Removals leave the dictionary holding terms no index references and
	// push version past the triple count.
	for i := 0; i < 50; i++ {
		g.Remove(rdf.NewIRI(fmt.Sprintf("http://e/s%d", i)), typ, cls)
	}
	return g
}

func snapshotBytes(t testing.TB, g *Graph) []byte {
	t.Helper()
	return g.AppendSnapshot(nil)
}

func TestSnapshotRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(t, rng)
		data := snapshotBytes(t, g)

		got, err := ReadSnapshot(data)
		if err != nil {
			t.Fatalf("seed %d: ReadSnapshot: %v", seed, err)
		}
		if !got.Equal(g) {
			t.Fatalf("seed %d: loaded graph differs from original", seed)
		}
		if got.Version() != g.Version() {
			t.Errorf("seed %d: Version = %d, want %d", seed, got.Version(), g.Version())
		}
		if got.Len() != g.Len() {
			t.Errorf("seed %d: Len = %d, want %d", seed, got.Len(), g.Len())
		}
		if iri, ok := got.Namespaces().IRIFor("ex"); !ok || iri != "http://e/" {
			t.Errorf("seed %d: namespace ex lost (%q, %v)", seed, iri, ok)
		}
		if got.Namespaces().Base() != "http://base/" {
			t.Errorf("seed %d: base lost: %q", seed, got.Namespaces().Base())
		}

		// The loaded graph must stay mutable and keep its indexes coherent.
		before := got.Len()
		got.Add(iri("fresh-s"), iri("fresh-p"), iri("fresh-o"))
		if got.Len() != before+1 || !got.Has(iri("fresh-s"), iri("fresh-p"), iri("fresh-o")) {
			t.Fatalf("seed %d: loaded graph rejects further mutation", seed)
		}

		// Count paths exercise the derived subjN/predN/objN maps.
		for _, tr := range g.Triples()[:10] {
			if got.Count(tr.S, rdf.Term{}, rdf.Term{}) != g.Count(tr.S, rdf.Term{}, rdf.Term{}) {
				t.Fatalf("seed %d: subject count mismatch for %v", seed, tr.S)
			}
		}
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	g := randomGraph(t, rand.New(rand.NewSource(7)))
	a := snapshotBytes(t, g)
	b := snapshotBytes(t, g)
	if !bytes.Equal(a, b) {
		t.Fatal("two snapshots of the same graph differ")
	}
}

func TestSnapshotEmptyGraph(t *testing.T) {
	g := New()
	got, err := ReadSnapshot(snapshotBytes(t, g))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if got.Len() != 0 || got.Version() != 0 {
		t.Fatalf("empty graph loaded as Len=%d Version=%d", got.Len(), got.Version())
	}
}

// TestSnapshotCorruptionRejected truncates and bit-flips a valid snapshot
// at every offset in a sampled set; every damaged stream must fail or load
// a graph (flips can land in string bytes and stay structurally valid) —
// never panic or hang.
func TestSnapshotCorruptionRejected(t *testing.T) {
	g := randomGraph(t, rand.New(rand.NewSource(3)))
	data := snapshotBytes(t, g)
	rng := rand.New(rand.NewSource(9))

	for i := 0; i < 200; i++ {
		cut := rng.Intn(len(data))
		if _, err := ReadSnapshot(data[:cut]); err == nil {
			// A truncation that still parses means trailing data was
			// redundant — impossible with two cross-checked indexes
			// unless the cut is at EOF.
			t.Fatalf("truncation at %d/%d accepted", cut, len(data))
		}
	}
	for i := 0; i < 200; i++ {
		mut := append([]byte(nil), data...)
		mut[rng.Intn(len(mut))] ^= 1 << rng.Intn(8)
		got, err := ReadSnapshot(mut)
		if err == nil && got == nil {
			t.Fatal("nil graph with nil error")
		}
	}
}

// Hand-encoded snapshots: a snapLevel is one outer key with its inner
// entries, a snapEntry one inner key with its set's containers, and a
// snapContainer one container (form 0 array, 1 bitmap, anything else
// invalid) with its array members or the set bits of its bitmap.
type snapContainer struct {
	key  uint64
	form byte
	vals []uint16
}

type snapEntry struct {
	b  uint64
	cs []snapContainer
}

type snapLevel struct {
	a     uint64
	inner []snapEntry
}

func lv(a, b uint64, cs ...snapContainer) snapLevel {
	return snapLevel{a, []snapEntry{{b, cs}}}
}

func arr(vals ...uint16) snapContainer { return snapContainer{0, 0, vals} }

// encodeSnapshot hand-encodes a snapshot: format version, graph version 1,
// dict (its first term's kind byte replaced by kind when kind is not 0),
// no prefixes, and one index section per element of idx, in order.
// trailing appends one stray byte.
func encodeSnapshot(version uint64, dict []rdf.Term, kind byte, idx [][]snapLevel, trailing bool) []byte {
	e := &rdf.Encoder{}
	e.Uvarint(version)
	e.Uvarint(1)
	e.Uvarint(uint64(len(dict)))
	for i, term := range dict {
		if i == 0 && kind != 0 {
			term.Kind = rdf.TermKind(kind)
		}
		e.Term(term)
	}
	e.Namespaces(nil)
	for _, levels := range idx {
		e.Uvarint(uint64(len(levels)))
		for _, l := range levels {
			e.Uvarint(l.a)
			e.Uvarint(uint64(len(l.inner)))
			for _, in := range l.inner {
				e.Uvarint(in.b)
				e.Uvarint(uint64(len(in.cs)))
				for _, c := range in.cs {
					e.Uvarint(c.key)
					e.Byte(c.form)
					if c.form == 1 {
						var words [bitmapWords]uint64
						for _, v := range c.vals {
							words[v/64] |= 1 << (v % 64)
						}
						for _, w := range words {
							e.Buf = binary.LittleEndian.AppendUint64(e.Buf, w)
						}
						continue
					}
					e.Uvarint(uint64(len(c.vals)))
					for _, v := range c.vals {
						e.Buf = binary.LittleEndian.AppendUint16(e.Buf, v)
					}
				}
			}
		}
	}
	if trailing {
		e.Byte(0)
	}
	return e.Buf
}

// TestSnapshotRejectsEachDamage hand-encodes a snapshot of the triple
// (0 1 2) and breaks one structural rule per case; ReadSnapshot must
// accept the intact form and reject every broken one.
func TestSnapshotRejectsEachDamage(t *testing.T) {
	dict := []rdf.Term{iri("s"), iri("p"), iri("o")}
	intact := [][]snapLevel{{lv(0, 1, arr(2))}, {lv(1, 2, arr(0))}}
	g, err := ReadSnapshot(encodeSnapshot(snapshotFormatVersion, dict, 0, intact, false))
	if err != nil || g.Len() != 1 || !g.Has(iri("s"), iri("p"), iri("o")) {
		t.Fatalf("intact snapshot: %v", err)
	}
	// spo replaces the SPO index.
	spo := func(levels ...snapLevel) []byte {
		idx := slices.Clone(intact)
		idx[0] = levels
		return encodeSnapshot(snapshotFormatVersion, dict, 0, idx, false)
	}
	dense := make([]uint16, arrMaxLen+1)
	for i := range dense {
		dense[i] = uint16(i)
	}
	for name, data := range map[string][]byte{
		"format version":      encodeSnapshot(snapshotFormatVersion+1, dict, 0, intact, false),
		"term kind":           encodeSnapshot(snapshotFormatVersion, dict, 4, intact, false),
		"duplicate term":      encodeSnapshot(snapshotFormatVersion, []rdf.Term{iri("s"), iri("p"), iri("s")}, 0, intact, false),
		"outer ID range":      spo(lv(3, 1, arr(2))),
		"inner ID range":      spo(lv(0, 3, arr(2))),
		"member ID range":     spo(lv(0, 1, arr(3))),
		"duplicate outer key": spo(lv(0, 1, arr(2)), lv(0, 2, arr(1))),
		"duplicate inner key": spo(snapLevel{0, []snapEntry{{1, []snapContainer{arr(2)}}, {1, []snapContainer{arr(0)}}}}),
		"container key order": spo(lv(0, 1, arr(2), arr(1))),
		"container key bound": spo(lv(0, 1, snapContainer{1 << 16, 0, []uint16{2}})),
		"array value order":   spo(lv(0, 1, arr(2, 1))),
		"empty array":         spo(lv(0, 1, arr())),
		"dense array":         spo(lv(0, 1, arr(dense...))),
		"sparse bitmap":       spo(lv(0, 1, snapContainer{0, 1, []uint16{2}})),
		"container form":      spo(lv(0, 1, snapContainer{0, 2, []uint16{2}})),
		"empty set":           spo(lv(0, 1)),
		"cardinality":         spo(),
		"trailing bytes":      encodeSnapshot(snapshotFormatVersion, dict, 0, intact, true),
	} {
		if _, err := ReadSnapshot(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// format1Snapshot encodes g in snapshot format 1: the format-2 layout
// with version byte 1 and an OSP index section after POS.
func format1Snapshot(g *Graph) []byte {
	data := g.AppendSnapshot(nil)
	data[0] = 1 // uvarint(1); format 2's version is the one byte 2
	var osp index
	g.ForEachID(NoID, NoID, NoID, func(s, p, o ID) bool {
		g.indexAdd(&osp, o, s, p)
		return true
	})
	e := &rdf.Encoder{Buf: data}
	appendIndex(e, &osp)
	return e.Buf
}

// TestSnapshotFormat1Loads: a format-1 file (three indexes) loads equal
// to the graph it was written from, re-encodes as format 2, and damage
// inside its OSP section is rejected like damage anywhere else.
func TestSnapshotFormat1Loads(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g := randomGraph(t, rand.New(rand.NewSource(seed)))
		got, err := ReadSnapshot(format1Snapshot(g))
		if err != nil {
			t.Fatalf("seed %d: format 1: %v", seed, err)
		}
		if !got.Equal(g) || got.Version() != g.Version() || got.Statistics() != g.Statistics() {
			t.Fatalf("seed %d: format-1 load differs from the graph written", seed)
		}
		again := got.AppendSnapshot(nil)
		if again[0] != snapshotFormatVersion || !bytes.Equal(again, g.AppendSnapshot(nil)) {
			t.Fatalf("seed %d: a format-1 load does not re-encode as the graph's format-2 snapshot", seed)
		}
	}

	dict := []rdf.Term{iri("s"), iri("p"), iri("o")}
	spo, pos := []snapLevel{lv(0, 1, arr(2))}, []snapLevel{lv(1, 2, arr(0))}
	format1 := func(osp ...snapLevel) []byte {
		return encodeSnapshot(1, dict, 0, [][]snapLevel{spo, pos, osp}, false)
	}
	if g, err := ReadSnapshot(format1(lv(2, 0, arr(1)))); err != nil || g.Len() != 1 {
		t.Fatalf("intact format-1 snapshot: %v", err)
	}
	for name, data := range map[string][]byte{
		"osp outer ID range":      format1(lv(3, 0, arr(1))),
		"osp inner ID range":      format1(lv(2, 3, arr(1))),
		"osp member ID range":     format1(lv(2, 0, arr(3))),
		"osp duplicate outer key": format1(lv(2, 0, arr(1)), lv(2, 1, arr(0))),
		"osp array value order":   format1(lv(2, 0, arr(1, 0))),
		"osp container form":      format1(lv(2, 0, snapContainer{0, 2, []uint16{1}})),
		"osp empty set":           format1(lv(2, 0)),
		"osp cardinality":         format1(),
		"osp missing":             encodeSnapshot(1, dict, 0, [][]snapLevel{spo, pos}, false),
		"format 2 with osp":       encodeSnapshot(snapshotFormatVersion, dict, 0, [][]snapLevel{spo, pos, {lv(2, 0, arr(1))}}, false),
	} {
		if _, err := ReadSnapshot(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSnapshotFormat1DisagreeingOSP loads a format-1 file whose SPO and
// POS hold (s p o) while its OSP, with the same count, holds (s p x). The
// object-bound patterns must answer (s p o) from SPO and POS.
func TestSnapshotFormat1DisagreeingOSP(t *testing.T) {
	dict := []rdf.Term{iri("s"), iri("p"), iri("o"), iri("x")}
	data := encodeSnapshot(1, dict, 0, [][]snapLevel{
		{lv(0, 1, arr(2))}, // SPO: s → p → {o}
		{lv(1, 2, arr(0))}, // POS: p → o → {s}
		{lv(3, 0, arr(1))}, // OSP: x → s → {p}
	}, false)
	g, err := ReadSnapshot(data)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	s, p, o := iri("s"), iri("p"), iri("o")
	if got := g.Predicates(s, o); len(got) != 1 || got[0] != p {
		t.Errorf("Predicates(s, o) = %v, want [p]", got)
	}
	if got := g.CountID(0, NoID, 2); got != 1 {
		t.Errorf("CountID(s, ?, o) = %d, want 1", got)
	}
	if got := g.Count(Wildcard, Wildcard, o); got != 1 {
		t.Errorf("Count(?, ?, o) = %d, want 1", got)
	}
	var seen []IDTriple
	g.ForEachID(NoID, NoID, 2, func(s, p, o ID) bool {
		seen = append(seen, IDTriple{s, p, o})
		return true
	})
	if len(seen) != 1 || seen[0] != (IDTriple{0, 1, 2}) {
		t.Errorf("ForEachID(?, ?, o) = %v, want [(0 1 2)]", seen)
	}
	if e, n := g.Exists(Wildcard, Wildcard, iri("x")), g.Statistics().Objects; e || n != 1 {
		t.Errorf("the dropped OSP section still answers: Exists(?, ?, x) = %v, Stats.Objects = %d", e, n)
	}
}

// FuzzDecodeSnapshot feeds arbitrary bytes to ReadSnapshot: it never
// panics, and a graph it accepts re-encodes to a snapshot that decodes to
// an equal graph at the same version.
func FuzzDecodeSnapshot(f *testing.F) {
	small := New()
	small.Add(iri("s"), iri("p"), rdf.NewLangLiteral("text", "en"))
	small.Add(rdf.NewBlank("b0"), iri("p"), rdf.NewTypedLiteral("7", rdf.XSDInteger))
	small.Remove(iri("s"), iri("p"), rdf.NewLangLiteral("text", "en"))
	f.Add(snapshotBytes(f, New()))
	f.Add(snapshotBytes(f, small))
	f.Add(snapshotBytes(f, randomGraph(f, rand.New(rand.NewSource(0)))))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadSnapshot(data)
		if err != nil {
			return
		}
		again, err := ReadSnapshot(g.AppendSnapshot(nil))
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if !again.Equal(g) || again.Version() != g.Version() {
			t.Fatalf("re-encoded snapshot decodes to a different graph (version %d, want %d)", again.Version(), g.Version())
		}
	})
}

func TestForceVersionMonotonic(t *testing.T) {
	g := New()
	g.Add(iri("s"), iri("p"), iri("o"))
	v := g.Version()
	g.ForceVersion(v + 10)
	if g.Version() != v+10 {
		t.Fatalf("ForceVersion did not raise: %d", g.Version())
	}
	g.ForceVersion(v) // lower: must be ignored
	if g.Version() != v+10 {
		t.Fatalf("ForceVersion lowered the version: %d", g.Version())
	}
}

// BenchmarkReadSnapshot decodes a randomGraph snapshot (≈ 4.8 k terms):
// dictionary, namespaces and both indexes.
func BenchmarkReadSnapshot(b *testing.B) {
	data := snapshotBytes(b, randomGraph(b, rand.New(rand.NewSource(1))))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for range b.N {
		if _, err := ReadSnapshot(data); err != nil {
			b.Fatal(err)
		}
	}
}
