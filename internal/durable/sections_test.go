package durable

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/rdf"
	"repro/internal/reasoner"
	"repro/internal/store"
)

// wireRefPastDict names term ID 4 of wireGraph's four-term dictionary:
// a ref equal to the dictionary size + 1.
var wireRefPastDict = []byte{1, 1, 5, 2, 1, 0, 0}

// wireOverlongRef spells its first ref as an 11-byte uvarint.
var wireOverlongRef = []byte{1, 1,
	0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00,
	2, 1, 0, 0,
}

// decodeSequentially decodes a (graph, closure) section pair one section
// after the other: store.ReadSnapshot, then parseClosure against the graph
// it returned. It is what decodeSections must answer like.
func decodeSequentially(graph, closure []byte) (*store.Graph, reasoner.ClosureState, []byte, error) {
	g, err := store.ReadSnapshot(graph)
	if err != nil {
		return nil, reasoner.ClosureState{}, nil, err
	}
	st, rest, err := parseClosure(closure, g)
	if err != nil {
		return nil, reasoner.ClosureState{}, nil, err
	}
	return g, st, rest, nil
}

// snapshotBytes frames a graph and a closure section as a snapshot file of
// generation 1, with a valid checksum over whatever the sections hold.
func snapshotBytes(graph, closure []byte) []byte {
	e := &rdf.Encoder{Buf: []byte(snapMagic)}
	e.Uvarint(1)
	e.Uvarint(uint64(len(graph)))
	e.Buf = append(append(e.Buf, graph...), closure...)
	return binary.LittleEndian.AppendUint32(e.Buf, crc32.Checksum(e.Buf, castagnoli))
}

// assertSameDecode checks that (g, st, err) is what the sequential decode
// of the same sections gave: the same error, or the same graph bytes and
// the same term-level trace.
func assertSameDecode(t testing.TB, g *store.Graph, st reasoner.ClosureState, err error, wg *store.Graph, wst reasoner.ClosureState, werr error) {
	t.Helper()
	if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
		t.Fatalf("error %v, want %v", err, werr)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(g.AppendSnapshot(nil), wg.AppendSnapshot(nil)) {
		t.Fatalf("graph differs: %d triples and %d terms, want %d and %d", g.Len(), g.Dict().Len(), wg.Len(), wg.Dict().Len())
	}
	if st.TotalInferred != wst.TotalInferred || !reflect.DeepEqual(termTrace(g, st), termTrace(wg, wst)) {
		t.Fatalf("trace differs: %d+%d entries (%d inferred), want %d+%d (%d)",
			len(st.Run), len(st.Later), st.TotalInferred, len(wst.Run), len(wst.Later), wst.TotalInferred)
	}
}

// settleGoroutines waits for the goroutine count to fall back to n: a
// joined goroutine may still be on its way out when its join returns.
func settleGoroutines(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running, started with %d", runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRecoverySectionErrors reads snapshot files whose graph section, or
// closure section, or both, are damaged behind a valid checksum, and one
// whose closure section opens with an inline ref in front of a large
// graph section, which makes the closure decode wait for the graph. Each
// must return what decoding the sections one after the other returns —
// the graph section's error first — and leave no goroutine behind.
func TestRecoverySectionErrors(t *testing.T) {
	liveG, _, live := tracedFoodKG(t)
	graph := liveG.AppendSnapshot(nil)
	closure := appendClosure(nil, live.ClosureState())
	// A truncated graph section keeps its header, and so its term count.
	badGraph := graph[:len(graph)-1]
	// An entry that names the term ID one past the dictionary.
	past := live.ClosureState()
	n := store.ID(liveG.Dict().Len())
	past.Add(store.IDTriple{S: n, P: 0, O: 0}, "cax-sco", nil)
	badClosure := appendClosure(nil, past)

	cases := []struct {
		name            string
		graph, closure  []byte
		wantErrContains string // "" for a clean decode
	}{
		{"damaged graph", badGraph, closure, "store: corrupt snapshot"},
		{"damaged closure", graph, badClosure, "out of dictionary range"},
		{"both damaged", badGraph, badClosure, "store: corrupt snapshot"},
		{"unreadable graph header", nil, closure, "store: corrupt snapshot"},
		{"inline first ref", graph, wireInlineSection, ""},
		{"intact", graph, closure, ""},
	}
	dir := t.TempDir()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(dir, snapshotName)
			if err := os.WriteFile(path, snapshotBytes(c.graph, c.closure), 0o644); err != nil {
				t.Fatal(err)
			}
			start := runtime.NumGoroutine()
			gen, g, st, err := readSnapshotFile(path)
			settleGoroutines(t, start)

			wg, wst, wrest, werr := decodeSequentially(c.graph, c.closure)
			if werr == nil && len(wrest) != 0 {
				t.Fatalf("test case leaves %d trailing bytes", len(wrest))
			}
			assertSameDecode(t, g, st, err, wg, wst, werr)
			if c.wantErrContains == "" {
				if err != nil || gen != 1 {
					t.Fatalf("generation %d, error %v", gen, err)
				}
			} else if err == nil || !strings.Contains(err.Error(), c.wantErrContains) {
				t.Fatalf("error %v, want one containing %q", err, c.wantErrContains)
			}
		})
	}
}

// TestClosureSectionTruncation: parseClosure rejects every cut-short
// closure section, an out-of-range ref and an overlong uvarint with an
// error, never a panic.
func TestClosureSectionTruncation(t *testing.T) {
	reject := func(t *testing.T, section []byte, g *store.Graph) error {
		t.Helper()
		_, _, err := parseClosure(section, g)
		if err == nil {
			t.Fatalf("%d-byte section accepted", len(section))
		}
		return err
	}
	for _, section := range [][]byte{wireSection, wireInlineSection} {
		for n := range len(section) {
			reject(t, section[:n], wireGraph())
		}
	}

	liveG, _, live := tracedFoodKG(t)
	g, err := store.ReadSnapshot(liveG.AppendSnapshot(nil))
	if err != nil {
		t.Fatal(err)
	}
	full := live.ClosureState()
	section := appendClosure(nil, full)
	if _, rest, err := parseClosure(section, g); err != nil || len(rest) != 0 {
		t.Fatalf("intact section: %v (%d trailing bytes)", err, len(rest))
	}
	// The last entry's length is that of a section holding only it, less
	// that section's two-uvarint header.
	last := full
	last.Run, last.Later = full.Run[len(full.Run)-1:], nil
	lastLen := len(appendClosure(nil, last)) - len(binary.AppendUvarint(binary.AppendUvarint(nil, uint64(full.TotalInferred)), 1))
	for i := range 64 {
		reject(t, section[:len(section)*i/64], g)
	}
	for n := len(section) - lastLen; n < len(section); n++ {
		reject(t, section[:n], g)
	}

	if err := reject(t, wireRefPastDict, wireGraph()); err.Error() != "durable: term reference 4 out of dictionary range 4" {
		t.Fatalf("ref past the dictionary: %v", err)
	}
	if _, _, err := parseClosure([]byte{1, 1, 4, 2, 1, 0, 0}, wireGraph()); err != nil {
		t.Fatalf("ref to the last term: %v", err)
	}
	if err := reject(t, wireOverlongRef, wireGraph()); err.Error() != "durable: truncated uvarint" {
		t.Fatalf("11-byte uvarint: %v", err)
	}
	// Counts the bytes left cannot hold fail before anything is sized or
	// looped over by them.
	for section, want := range map[string]string{
		"\x01\xff\xff\xff\xff\x0f":                     "durable: derivation count 4294967295 exceeds the 0 bytes left",
		"\x01\x01\x01\x02\x01\x00\xff\xff\xff\xff\x0f": "durable: premise count 4294967295 exceeds the 0 bytes left",
	} {
		if err := reject(t, []byte(section), wireGraph()); err.Error() != want {
			t.Fatalf("count past the bytes left: %v, want %s", err, want)
		}
	}
}

// FuzzDecodeSnapshotSections holds the concurrent decode of a (graph,
// closure) section pair to the same two production decoders called one
// after the other: the same error, or the same graph and the same
// term-level trace.
func FuzzDecodeSnapshotSections(f *testing.F) {
	graph := wireGraph().AppendSnapshot(nil)
	for _, closure := range [][]byte{wireSection, wireInlineSection, wireOutOfRange, wireRefPastDict, wireOverlongRef} {
		f.Add(graph, closure)
		f.Add(graph[:len(graph)-1], closure)
	}
	f.Add([]byte{}, wireSection)
	f.Fuzz(func(t *testing.T, graph, closure []byte) {
		g, st, rest, err := decodeSections(graph, closure)
		wg, wst, wrest, werr := decodeSequentially(graph, closure)
		assertSameDecode(t, g, st, err, wg, wst, werr)
		if !bytes.Equal(rest, wrest) {
			t.Fatalf("%d trailing bytes, want %d", len(rest), len(wrest))
		}
	})
}

// BenchmarkReadSnapshotFile times reading back the snapshot file a
// compaction of a traced synthetic FoodKG writes: the checksum, then the
// graph and closure sections decoded concurrently.
func BenchmarkReadSnapshotFile(b *testing.B) {
	g, _, r := tracedFoodKG(b)
	dir := b.TempDir()
	st, _, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	if err := st.Compact(g, r.ClosureState()); err != nil {
		b.Fatal(err)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(dir, snapshotName)
	info, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(info.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, _, _, err := readSnapshotFile(path); err != nil {
			b.Fatal(err)
		}
	}
}
