package durable

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/rdf"
	"repro/internal/reasoner"
	"repro/internal/store"
)

func tIRI(s string) rdf.Term { return rdf.NewIRI("http://e/" + s) }

func tTriple(n int) rdf.Triple {
	return rdf.Triple{S: tIRI(fmt.Sprintf("s%d", n)), P: tIRI("p"), O: tIRI(fmt.Sprintf("o%d", n))}
}

// testRecord builds the record a commit adding triple n would produce
// against a graph at version v.
func testRecord(n int, v uint64) Record {
	return Record{
		Ops:           []store.TermOp{{T: tTriple(n)}},
		EndVersion:    v,
		TotalInferred: n,
		Derivations: []reasoner.TracedDerivation{{
			Conclusion: tTriple(n), Rule: "test-rule",
			Premises: []rdf.Triple{tTriple(n + 1000)},
		}},
	}
}

// seedStore opens dir, seeds it with base as generation 1, and returns the
// open store.
func seedStore(t *testing.T, dir string, base *store.Graph) *Store {
	t.Helper()
	st, boot, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if boot.Graph != nil {
		t.Fatal("fresh directory should boot with a nil graph")
	}
	if err := st.Compact(base, reasoner.ClosureState{}); err != nil {
		t.Fatalf("seed Compact: %v", err)
	}
	return st
}

// codecRecords are the record codec's round-trip fixtures.
func codecRecords() []Record {
	return []Record{
		{},
		{Cleared: true, EndVersion: 42},
		testRecord(1, 7),
		{
			Cleared: true,
			Ops: []store.TermOp{
				{T: tTriple(1)},
				{Remove: true, T: rdf.Triple{S: tIRI("s"), P: tIRI("p"), O: rdf.NewLangLiteral("héllo", "fr")}},
				{T: rdf.Triple{S: rdf.NewBlank("b0"), P: tIRI("p"), O: rdf.NewTypedLiteral("3", rdf.XSDInteger)}},
			},
			EndVersion:    1 << 40,
			TotalInferred: 12345,
			Derivations: []reasoner.TracedDerivation{
				{Conclusion: tTriple(9), Rule: "prp-trp", Premises: []rdf.Triple{tTriple(1), tTriple(2)}},
				{Conclusion: tTriple(10), Rule: "cax-sco"},
			},
		},
		func() Record {
			rec := testRecord(2, 8)
			rec.Namespaces = rdf.NewNamespaces()
			rec.Namespaces.Bind("zz", "http://zz.example/")
			rec.Namespaces.Bind("e", "http://e/")
			rec.Namespaces.SetBase("http://base.example/")
			return rec
		}(),
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	for i, rec := range codecRecords() {
		payload := appendRecord(nil, rec)
		got, err := parseRecord(payload)
		if err != nil {
			t.Fatalf("rec %d: parse: %v", i, err)
		}
		if got.Cleared != rec.Cleared || got.EndVersion != rec.EndVersion ||
			got.TotalInferred != rec.TotalInferred ||
			len(got.Ops) != len(rec.Ops) || len(got.Derivations) != len(rec.Derivations) {
			t.Fatalf("rec %d: roundtrip mismatch\n got %+v\nwant %+v", i, got, rec)
		}
		for j := range rec.Ops {
			if got.Ops[j] != rec.Ops[j] {
				t.Fatalf("rec %d op %d: %+v != %+v", i, j, got.Ops[j], rec.Ops[j])
			}
		}
		if (got.Namespaces == nil) != (rec.Namespaces == nil) ||
			fmt.Sprint(prefixTable(got.Namespaces)) != fmt.Sprint(prefixTable(rec.Namespaces)) {
			t.Fatalf("rec %d: prefix table %v, want %v", i, prefixTable(got.Namespaces), prefixTable(rec.Namespaces))
		}
		for j := range rec.Derivations {
			if got.Derivations[j].Conclusion != rec.Derivations[j].Conclusion ||
				got.Derivations[j].Rule != rec.Derivations[j].Rule ||
				len(got.Derivations[j].Premises) != len(rec.Derivations[j].Premises) {
				t.Fatalf("rec %d derivation %d mismatch", i, j)
			}
		}
	}
}

// prefixTable lists ns as "prefix=iri" pairs plus the base.
func prefixTable(ns *rdf.Namespaces) []string {
	var out []string
	for _, p := range ns.Prefixes() {
		iri, _ := ns.IRIFor(p)
		out = append(out, p+"="+iri)
	}
	return append(out, "base="+ns.Base())
}

func TestRecordCodecRejectsDamage(t *testing.T) {
	payload := appendRecord(nil, testRecord(3, 9))
	withPrefixes := testRecord(3, 9)
	withPrefixes.Namespaces = rdf.NewNamespaces()
	withPrefixes.Namespaces.Bind("zz", "http://zz.example/")
	// Every truncation must error (the payload has no optional tail).
	for _, full := range [][]byte{payload, appendRecord(nil, withPrefixes)} {
		for cut := 0; cut < len(full); cut++ {
			if _, err := parseRecord(full[:cut]); err == nil {
				t.Fatalf("truncation at %d of %d accepted", cut, len(full))
			}
		}
	}
	if _, err := parseRecord(append(payload[:len(payload):len(payload)], 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	bad := append([]byte(nil), payload...)
	bad[0] |= 0x80 // unknown flag bit
	if _, err := parseRecord(bad); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// FuzzWALReplay replays a WAL whose intact prefix holds the codec
// fixtures, then one frame around an arbitrary payload, then an arbitrary
// tail. Nothing panics; replay keeps the whole prefix, and the fuzzed
// frame too when its payload parses. A payload that parses re-encodes to
// one that parses to the same record.
func FuzzWALReplay(f *testing.F) {
	recs := codecRecords()
	newGraph := func() *store.Graph {
		g := store.New()
		g.AddTriple(tTriple(0))
		return g
	}
	hdr := &rdf.Encoder{}
	hdr.Uvarint(1)
	hdr.Uvarint(newGraph().Version())
	prefix := appendFrame([]byte(walMagic), hdr.Buf)
	for _, rec := range recs {
		payload := appendRecord(nil, rec)
		prefix = appendFrame(prefix, payload)
		f.Add(payload, []byte(nil))
	}
	torn := appendFrame(nil, appendRecord(nil, recs[2]))
	f.Add(appendRecord(nil, recs[4]), torn[:len(torn)-1])
	f.Fuzz(func(t *testing.T, payload, tail []byte) {
		rec, err := parseRecord(payload)
		if err == nil {
			back, err := parseRecord(appendRecord(nil, rec))
			if err != nil || !sameRecord(back, rec) {
				t.Fatalf("re-encoded record parses to %+v (%v), want %+v", back, err, rec)
			}
		}
		data := appendFrame(slices.Clip(prefix), payload)
		wantOff, wantRecs := int64(len(prefix)), len(recs)
		if err == nil {
			wantOff, wantRecs = int64(len(data)), len(recs)+1
		}
		data = append(data, tail...)
		boot := &Boot{}
		if off := replayWAL(data, 1, newGraph(), boot); off < wantOff || boot.Records < wantRecs {
			t.Fatalf("replay kept %d bytes and %d records, want at least %d and %d", off, boot.Records, wantOff, wantRecs)
		}
	})
}

// sameRecord reports whether a and b hold the same commit.
func sameRecord(a, b Record) bool {
	return a.Cleared == b.Cleared && a.EndVersion == b.EndVersion &&
		a.TotalInferred == b.TotalInferred &&
		reflect.DeepEqual(a.Ops, b.Ops) && reflect.DeepEqual(a.Derivations, b.Derivations) &&
		(a.Namespaces == nil) == (b.Namespaces == nil) &&
		slices.Equal(prefixTable(a.Namespaces), prefixTable(b.Namespaces))
}

func TestFreshDirSeedAppendReopen(t *testing.T) {
	dir := t.TempDir()
	base := store.New()
	base.AddTriple(tTriple(0))
	st := seedStore(t, dir, base)

	// Append is refused before the seed... (checked via a second fresh dir)
	st2, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Append(testRecord(1, 1)); err == nil {
		t.Fatal("Append before seed Compact should fail")
	}
	st2.Close()

	// ...and accepted after.
	live := base.Clone()
	for n := 1; n <= 3; n++ {
		rec := testRecord(n, live.Version()+2)
		for _, op := range rec.Ops {
			live.AddTriple(op.T)
		}
		live.ForceVersion(rec.EndVersion)
		if err := st.Append(rec); err != nil {
			t.Fatalf("Append %d: %v", n, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st3, boot, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st3.Close()
	if boot.Records != 3 || boot.Truncated {
		t.Fatalf("boot = %d records, truncated=%v; want 3, false", boot.Records, boot.Truncated)
	}
	if !boot.Graph.Equal(live) {
		t.Fatal("replayed graph differs from live graph")
	}
	if boot.Graph.Version() != live.Version() {
		t.Fatalf("replayed version %d, want %d", boot.Graph.Version(), live.Version())
	}
	if boot.Closure.TotalInferred != 3 || len(boot.Closure.Run)+len(boot.Closure.Later) != 3 {
		t.Fatalf("closure = %+v", boot.Closure)
	}
	// Double Close is safe.
	if err := st3.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := st3.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestTruncationEveryOffset cuts the WAL at every byte offset and asserts
// prefix recovery: the booted graph always equals the state after some
// prefix of the appended records — specifically the longest prefix whose
// frames survived intact — and never panics or reports a corrupt middle.
func TestTruncationEveryOffset(t *testing.T) {
	dir := t.TempDir()
	base := store.New()
	base.AddTriple(tTriple(0))
	st := seedStore(t, dir, base)

	// Record the expected graph after each prefix of appends.
	const k = 5
	prefixes := []*store.Graph{base.Clone()}
	live := base.Clone()
	for n := 1; n <= k; n++ {
		rec := testRecord(n, live.Version()+2)
		live.AddTriple(rec.Ops[0].T)
		live.ForceVersion(rec.EndVersion)
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
		prefixes = append(prefixes, live.Clone())
	}
	st.Close()

	walPath := filepath.Join(dir, walName(st.Generation()))
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(full); cut++ {
		scratch := t.TempDir()
		if err := os.WriteFile(filepath.Join(scratch, snapshotName), mustRead(t, filepath.Join(dir, snapshotName)), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(scratch, walName(st.Generation())), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st2, boot, err := Open(scratch, Options{})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		matched := -1
		for i, pg := range prefixes {
			if boot.Graph.Equal(pg) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Fatalf("cut %d: recovered graph matches no prefix", cut)
		}
		if boot.Records != matched {
			t.Fatalf("cut %d: %d records replayed but graph matches prefix %d", cut, boot.Records, matched)
		}
		if cut == len(full) && (boot.Truncated || matched != k) {
			t.Fatalf("intact WAL: truncated=%v prefix=%d", boot.Truncated, matched)
		}
		if cut < len(full) && matched == k && !boot.Truncated && boot.Records == k {
			// A cut strictly inside the file that still yields all k records
			// can only be the loss of pure padding — impossible here.
			t.Fatalf("cut %d: full recovery from a truncated file", cut)
		}
		// The reopened store must accept appends (tail repaired).
		if err := st2.Append(testRecord(99, boot.Graph.Version()+1)); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		st2.Close()
	}
}

// TestBitFlipCorruption flips random bits in the WAL body and asserts
// recovery still lands on a clean record prefix.
func TestBitFlipCorruption(t *testing.T) {
	dir := t.TempDir()
	base := store.New()
	base.AddTriple(tTriple(0))
	st := seedStore(t, dir, base)
	const k = 5
	live := base.Clone()
	prefixes := []*store.Graph{base.Clone()}
	for n := 1; n <= k; n++ {
		rec := testRecord(n, live.Version()+2)
		live.AddTriple(rec.Ops[0].T)
		live.ForceVersion(rec.EndVersion)
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
		prefixes = append(prefixes, live.Clone())
	}
	st.Close()
	walPath := filepath.Join(dir, walName(st.Generation()))
	full := mustRead(t, walPath)
	snap := mustRead(t, filepath.Join(dir, snapshotName))

	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		mut := append([]byte(nil), full...)
		mut[rng.Intn(len(mut))] ^= 1 << rng.Intn(8)
		scratch := t.TempDir()
		os.WriteFile(filepath.Join(scratch, snapshotName), snap, 0o644)
		os.WriteFile(filepath.Join(scratch, walName(st.Generation())), mut, 0o644)
		st2, boot, err := Open(scratch, Options{})
		if err != nil {
			t.Fatalf("flip %d: Open: %v", i, err)
		}
		matched := false
		for _, pg := range prefixes {
			if boot.Graph.Equal(pg) {
				matched = true
				break
			}
		}
		if !matched {
			t.Fatalf("flip %d: recovered graph matches no prefix (records=%d)", i, boot.Records)
		}
		st2.Close()
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// faultFile injects a write failure after budget bytes, simulating a crash
// mid-frame: bytes beyond the budget are silently dropped, the write
// reports an error, and every later operation fails.
type faultFile struct {
	f      *os.File
	budget int
	dead   bool
}

func (ff *faultFile) Write(p []byte) (int, error) {
	if ff.dead {
		return 0, errors.New("fault: file is dead")
	}
	if len(p) <= ff.budget {
		ff.budget -= len(p)
		return ff.f.Write(p)
	}
	n, _ := ff.f.Write(p[:ff.budget])
	ff.budget = 0
	ff.dead = true
	return n, errors.New("fault: write cut short")
}

func (ff *faultFile) Sync() error {
	if ff.dead {
		return errors.New("fault: file is dead")
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error { return ff.f.Close() }

// TestCrashFaultInjection arms the newWALFile failpoint so a randomized
// append stream dies mid-write at an arbitrary byte offset, then verifies:
// the failed Append errors (the commit is never acknowledged), the store
// stays poisoned for later appends, reopening recovers exactly the
// acknowledged prefix, and Compact repairs the poisoned store in place.
func TestCrashFaultInjection(t *testing.T) {
	orig := newWALFile
	defer func() { newWALFile = orig }()

	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		newWALFile = orig
		dir := t.TempDir()
		base := store.New()
		base.AddTriple(tTriple(0))
		st := seedStore(t, dir, base)

		budget := rng.Intn(600) // dies somewhere inside the first few frames
		armed := false
		newWALFile = func(path string, flag int) (walFile, error) {
			f, err := os.OpenFile(path, flag, 0o644)
			if err != nil {
				return nil, err
			}
			if armed {
				return &faultFile{f: f, budget: budget}, nil
			}
			return f, nil
		}
		// Re-open through the failpoint so the append handle is faulty.
		st.Close()
		armed = true
		st, boot, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("trial %d: reopen: %v", trial, err)
		}
		live := boot.Graph.Clone()

		acked := []*store.Graph{live.Clone()}
		crashed := false
		for n := 1; n <= 8; n++ {
			rec := testRecord(n, live.Version()+2)
			next := live.Clone()
			next.AddTriple(rec.Ops[0].T)
			next.ForceVersion(rec.EndVersion)
			if err := st.Append(rec); err != nil {
				crashed = true
				// Poisoned: every later append must also fail.
				if err2 := st.Append(rec); err2 == nil {
					t.Fatalf("trial %d: append succeeded on a poisoned store", trial)
				}
				break
			}
			live = next
			acked = append(acked, live.Clone())
		}
		if !crashed {
			t.Fatalf("trial %d: fault never fired (budget %d)", trial, budget)
		}

		// Crash: drop the handle without Close (Close would flush state we
		// pretend was lost) and recover from disk.
		newWALFile = orig
		st2, boot2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("trial %d: recovery open: %v", trial, err)
		}
		matched := -1
		for i, ag := range acked {
			if boot2.Graph.Equal(ag) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Fatalf("trial %d: recovered state matches no acknowledged prefix", trial)
		}
		if matched != len(acked)-1 {
			t.Fatalf("trial %d: recovered prefix %d but %d commits were acknowledged",
				trial, matched, len(acked)-1)
		}
		st2.Close()

		// Compact repairs the poisoned store: appends flow again.
		if err := st.Compact(live, reasoner.ClosureState{}); err != nil {
			t.Fatalf("trial %d: repair Compact: %v", trial, err)
		}
		if err := st.Append(testRecord(50, live.Version()+1)); err != nil {
			t.Fatalf("trial %d: append after repair: %v", trial, err)
		}
		st.Close()
	}
}

func TestCompactionRotatesAndCleansUp(t *testing.T) {
	dir := t.TempDir()
	base := store.New()
	base.AddTriple(tTriple(0))
	st := seedStore(t, dir, base)
	gen1 := st.Generation()

	live := base.Clone()
	rec := testRecord(1, live.Version()+2)
	live.AddTriple(rec.Ops[0].T)
	live.ForceVersion(rec.EndVersion)
	if err := st.Append(rec); err != nil {
		t.Fatal(err)
	}
	sizeBefore := st.WALSize()
	if err := st.Compact(live, reasoner.ClosureState{TotalInferred: 1}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if st.Generation() != gen1+1 {
		t.Fatalf("generation %d, want %d", st.Generation(), gen1+1)
	}
	if st.WALSize() >= sizeBefore {
		t.Fatalf("WAL did not shrink after compaction (%d -> %d)", sizeBefore, st.WALSize())
	}
	if _, err := os.Stat(filepath.Join(dir, walName(gen1))); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("old WAL survived compaction: %v", err)
	}
	st.Close()

	st2, boot, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if boot.Records != 0 || !boot.Graph.Equal(live) || boot.Closure.TotalInferred != 1 {
		t.Fatalf("post-compaction boot wrong: records=%d inferred=%d", boot.Records, boot.Closure.TotalInferred)
	}
}

func TestStaleWALCleanup(t *testing.T) {
	dir := t.TempDir()
	base := store.New()
	base.AddTriple(tTriple(0))
	st := seedStore(t, dir, base)
	st.Close()
	// Simulate an interrupted compaction: a WAL from a different generation.
	stale := filepath.Join(dir, walName(st.Generation()+7))
	if err := os.WriteFile(stale, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, boot, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if boot.Graph == nil || !boot.Graph.Equal(base) {
		t.Fatal("boot lost the snapshot state")
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("stale WAL not deleted")
	}
}

func TestCorruptSnapshotIsAnError(t *testing.T) {
	dir := t.TempDir()
	base := store.New()
	base.AddTriple(tTriple(0))
	st := seedStore(t, dir, base)
	st.Close()

	path := filepath.Join(dir, snapshotName)
	data := mustRead(t, path)
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("corrupt snapshot silently accepted")
	}
}

func TestClearInWAL(t *testing.T) {
	dir := t.TempDir()
	base := store.New()
	base.AddTriple(tTriple(0))
	base.AddTriple(tTriple(1))
	st := seedStore(t, dir, base)

	live := base.Clone()
	live.Clear()
	live.AddTriple(tTriple(7))
	rec := Record{Cleared: true, Ops: []store.TermOp{{T: tTriple(7)}},
		EndVersion: live.Version() + 5, TotalInferred: 0}
	live.ForceVersion(rec.EndVersion)
	if err := st.Append(rec); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, boot, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if !boot.Graph.Equal(live) {
		t.Fatalf("Clear record replayed wrong: %d triples", boot.Graph.Len())
	}
	if boot.Graph.Has(tTriple(0).S, tTriple(0).P, tTriple(0).O) {
		t.Fatal("pre-Clear triple survived replay")
	}
	if len(boot.Closure.Run)+len(boot.Closure.Later) != 0 {
		t.Fatal("Clear record should wipe accumulated derivations")
	}
}
