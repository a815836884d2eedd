package durable

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/reasoner"
	"repro/internal/store"
)

// compactSteps are the failpoint names a compaction passes, in order.
var compactSteps = []string{"rotated", "synced", "renamed", "dir-synced"}

// ackLog appends records to a store and remembers the state after every
// acknowledged one.
type ackLog struct {
	t     *testing.T
	st    *Store
	live  *store.Graph
	acked []*store.Graph
}

func newAckLog(t *testing.T, st *Store, base *store.Graph) *ackLog {
	return &ackLog{t: t, st: st, live: base.Clone(), acked: []*store.Graph{base.Clone()}}
}

// commit appends the record adding triple n and returns the index of the
// acknowledged state it produced.
func (a *ackLog) commit(n int) int {
	a.t.Helper()
	rec := testRecord(n, a.live.Version()+2)
	if err := a.st.Append(rec); err != nil {
		a.t.Fatalf("Append %d: %v", n, err)
	}
	a.live.AddTriple(rec.Ops[0].T)
	a.live.ForceVersion(rec.EndVersion)
	a.acked = append(a.acked, a.live.Clone())
	return len(a.acked) - 1
}

// copyDir copies a data directory's regular files into a fresh temp dir:
// what a crash at this instant leaves on disk.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), mustRead(t, filepath.Join(src, e.Name())), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func listDir(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestCompactKillPoints crashes a compaction at each of its steps while
// commits keep arriving — before the pin, between the pin and the write,
// and at every step of the write — and checks recovery yields exactly the
// acknowledged prefix, including the commits acknowledged during the
// write, and that the recovered store keeps appending and compacting.
func TestCompactKillPoints(t *testing.T) {
	dir := t.TempDir()
	base := store.New()
	base.AddTriple(tTriple(0))
	st := seedStore(t, dir, base)
	log := newAckLog(t, st, base)
	log.commit(1)
	log.commit(2)

	type crash struct {
		dir   string
		acked int // index of the last acknowledged state
	}
	crashes := map[string]crash{}
	n := 10
	restore := SetFailpoint(func(step string) error {
		// A commit lands at every step, then the process dies there.
		n++
		crashes[step] = crash{copyDir(t, dir), log.commit(n)}
		return nil
	})
	defer restore()
	c, err := st.BeginCompact(log.live.Clone(), reasoner.ClosureState{TotalInferred: 2})
	if err != nil {
		t.Fatalf("BeginCompact: %v", err)
	}
	log.commit(3) // acknowledged while the snapshot is being written
	log.commit(4)
	if err := c.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	restore()
	crashes["done"] = crash{copyDir(t, dir), len(log.acked) - 1}
	if got := listDir(t, dir); !slices.Equal(got, []string{snapshotName, walName(2)}) {
		t.Fatalf("after the compaction the directory holds %v", got)
	}

	// The snapshot a crash boots from: the new one once it is renamed.
	bootGen := map[string]uint64{"rotated": 1, "synced": 1, "renamed": 2, "dir-synced": 2, "done": 2}
	for _, step := range append(compactSteps, "done") {
		cr := crashes[step]
		// The commit made at a step is in the state the crash copy holds.
		if step != "done" {
			cr.acked--
		}
		t.Run(step, func(t *testing.T) {
			st2, boot, err := Open(cr.dir, Options{})
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			if !boot.Graph.Equal(log.acked[cr.acked]) || boot.Graph.Version() != log.acked[cr.acked].Version() {
				t.Fatalf("recovered %d triples at version %d, want acknowledged state %d (%d triples, version %d)",
					boot.Graph.Len(), boot.Graph.Version(), cr.acked,
					log.acked[cr.acked].Len(), log.acked[cr.acked].Version())
			}
			if boot.Truncated || boot.Generation != bootGen[step] {
				t.Fatalf("boot: truncated %v, generation %d, want false, %d", boot.Truncated, boot.Generation, bootGen[step])
			}
			if _, err := os.Stat(filepath.Join(cr.dir, snapshotName+".tmp")); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("recovery left the snapshot temp file: %v", err)
			}
			// The recovered store appends to the chain's last WAL and
			// compacts the chain down to one.
			rec := testRecord(99, boot.Graph.Version()+1)
			if err := st2.Append(rec); err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
			want := boot.Graph.Clone()
			want.AddTriple(rec.Ops[0].T)
			want.ForceVersion(rec.EndVersion)
			if err := st2.Compact(want, reasoner.ClosureState{}); err != nil {
				t.Fatalf("compact after recovery: %v", err)
			}
			st2.Close()
			if got := listDir(t, cr.dir); len(got) != 2 {
				t.Fatalf("compacted directory holds %v", got)
			}
			st3, boot3, err := Open(cr.dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer st3.Close()
			if !boot3.Graph.Equal(want) || boot3.Records != 0 {
				t.Fatalf("reboot after compaction: %d triples, %d records", boot3.Graph.Len(), boot3.Records)
			}
		})
	}
	st.Close()
}

// TestCompactFailureAtEachStep fails a compaction at each step: the store
// keeps appending, the directory recovers every acknowledged commit from
// the WAL chain, and the next compaction succeeds and folds the chain.
func TestCompactFailureAtEachStep(t *testing.T) {
	for _, step := range compactSteps {
		t.Run(step, func(t *testing.T) {
			dir := t.TempDir()
			base := store.New()
			base.AddTriple(tTriple(0))
			st := seedStore(t, dir, base)
			defer st.Close()
			log := newAckLog(t, st, base)
			log.commit(1)

			fail := errors.New("failpoint")
			restore := SetFailpoint(func(s string) error {
				if s == step {
					return fail
				}
				return nil
			})
			if err := st.Compact(log.live.Clone(), reasoner.ClosureState{}); !errors.Is(err, fail) {
				t.Fatalf("Compact = %v, want the failpoint error", err)
			}
			restore()
			last := log.commit(2)
			rec, boot := reopen(t, copyDir(t, dir))
			if !boot.Graph.Equal(log.acked[last]) {
				t.Fatalf("recovered %d triples, want %d", boot.Graph.Len(), log.acked[last].Len())
			}
			rec.Close()

			if err := st.Compact(log.live.Clone(), reasoner.ClosureState{}); err != nil {
				t.Fatalf("retry Compact: %v", err)
			}
			if got := listDir(t, dir); !slices.Equal(got, []string{snapshotName, walName(3)}) {
				t.Fatalf("after the retry the directory holds %v", got)
			}
			last = log.commit(3)
			rec, boot = reopen(t, copyDir(t, dir))
			defer rec.Close()
			if !boot.Graph.Equal(log.acked[last]) || boot.Records != 1 || boot.Generation != 3 {
				t.Fatalf("after the retry: %d triples, %d records, generation %d",
					boot.Graph.Len(), boot.Records, boot.Generation)
			}
		})
	}
}

// TestCompactRepairsPoisonOnlyWhenCovered: a snapshot installs over a
// poisoned WAL only if the WAL predates it. A compaction pinned before
// the failed append leaves the store poisoned; the next one repairs it.
func TestCompactRepairsPoisonOnlyWhenCovered(t *testing.T) {
	orig := newWALFile
	defer func() { newWALFile = orig }()
	dir := t.TempDir()
	base := store.New()
	base.AddTriple(tTriple(0))
	st := seedStore(t, dir, base)
	defer st.Close()
	log := newAckLog(t, st, base)

	newWALFile = func(path string, flag int) (walFile, error) {
		f, err := os.OpenFile(path, flag, 0o644)
		if err != nil {
			return nil, err
		}
		return &tearOnceFile{f: f, budget: 30}, nil // the new WAL tears its first record
	}
	c, err := st.BeginCompact(log.live.Clone(), reasoner.ClosureState{})
	newWALFile = orig
	if err != nil {
		t.Fatalf("BeginCompact: %v", err)
	}
	if err := st.Append(testRecord(1, log.live.Version()+2)); err == nil {
		t.Fatal("append through the dying WAL succeeded")
	}
	if err := c.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if err := st.Append(testRecord(2, log.live.Version()+4)); err == nil {
		t.Fatal("a snapshot pinned before the failed append repaired the store")
	}
	if err := st.Compact(log.live.Clone(), reasoner.ClosureState{}); err != nil {
		t.Fatalf("repair Compact: %v", err)
	}
	last := log.commit(3)
	rec, boot := reopen(t, copyDir(t, dir))
	defer rec.Close()
	if !boot.Graph.Equal(log.acked[last]) {
		t.Fatalf("recovered %d triples, want %d", boot.Graph.Len(), log.acked[last].Len())
	}
}

// tearOnceFile cuts the write that crosses budget short, then writes
// normally again: a WAL whose later appends would land behind a torn
// record if the store let them.
type tearOnceFile struct {
	f      *os.File
	budget int
}

func (tf *tearOnceFile) Write(p []byte) (int, error) {
	if tf.budget < 0 || len(p) <= tf.budget {
		tf.budget -= len(p)
		return tf.f.Write(p)
	}
	n, _ := tf.f.Write(p[:tf.budget])
	tf.budget = -1
	return n, errors.New("fault: write cut short")
}

func (tf *tearOnceFile) Sync() error  { return tf.f.Sync() }
func (tf *tearOnceFile) Close() error { return tf.f.Close() }

func reopen(t *testing.T, dir string) (*Store, *Boot) {
	t.Helper()
	st, boot, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open %s: %v", dir, err)
	}
	return st, boot
}

// TestRecoveryParentDataDir boots a data directory written by the
// previous on-disk protocol (one WAL per snapshot, a crashed two-phase
// compaction's snapshot.bin.pending side file left behind) and checks it
// recovers the acknowledged state: generation 2's snapshot plus the two
// records of wal-2.log, never the uninstalled side file's state — and
// that boot deletes the side file.
func TestRecoveryParentDataDir(t *testing.T) {
	dir := copyDir(t, filepath.Join("testdata", "parentdir"))
	want := store.New()
	for i := 0; i < 3; i++ {
		want.AddTriple(tTriple(i))
	}
	for n := 1; n <= 4; n++ {
		rec := testRecord(n, want.Version()+2)
		want.AddTriple(rec.Ops[0].T)
		want.ForceVersion(rec.EndVersion)
	}
	st, boot := reopen(t, dir)
	if _, err := os.Stat(filepath.Join(dir, snapshotName+".pending")); !os.IsNotExist(err) {
		t.Fatalf("the side file survived boot: stat err %v", err)
	}
	if boot.Generation != 2 || boot.Records != 2 || boot.Truncated {
		t.Fatalf("boot: generation %d, %d records, truncated %v", boot.Generation, boot.Records, boot.Truncated)
	}
	if !boot.Graph.Equal(want) || boot.Graph.Version() != want.Version() {
		t.Fatalf("recovered %d triples at version %d, want %d at %d",
			boot.Graph.Len(), boot.Graph.Version(), want.Len(), want.Version())
	}
	if boot.Closure.TotalInferred != 4 || len(boot.Closure.Run)+len(boot.Closure.Later) != 2 {
		t.Fatalf("closure: %d inferred, %d derivations", boot.Closure.TotalInferred, len(boot.Closure.Run)+len(boot.Closure.Later))
	}
	rec := testRecord(5, want.Version()+1)
	if err := st.Append(rec); err != nil {
		t.Fatal(err)
	}
	want.AddTriple(rec.Ops[0].T)
	want.ForceVersion(rec.EndVersion)
	if err := st.Compact(want, reasoner.ClosureState{}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st2, boot2 := reopen(t, dir)
	defer st2.Close()
	if !boot2.Graph.Equal(want) || boot2.Generation != 3 {
		t.Fatalf("after compaction: %d triples, generation %d", boot2.Graph.Len(), boot2.Generation)
	}
}

// syncCountFile counts the fsyncs of each file it opens.
type syncCountFile struct {
	*os.File
	syncs *int
}

func (sf syncCountFile) Sync() error {
	*sf.syncs++
	return sf.File.Sync()
}

// TestCompactSyncsOldWAL: the pin fsyncs the WAL it rotates away from.
// Under SyncInterval and SyncNever that WAL's tail may be unsynced, and
// nothing syncs it once appends have moved on.
func TestCompactSyncsOldWAL(t *testing.T) {
	orig := newWALFile
	defer func() { newWALFile = orig }()
	syncs := map[string]*int{}
	newWALFile = func(path string, flag int) (walFile, error) {
		f, err := os.OpenFile(path, flag, 0o644)
		if err != nil {
			return nil, err
		}
		syncs[filepath.Base(path)] = new(int)
		return syncCountFile{f, syncs[filepath.Base(path)]}, nil
	}
	dir := t.TempDir()
	st, _, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	base := store.New()
	base.AddTriple(tTriple(0))
	if err := st.Compact(base, reasoner.ClosureState{}); err != nil {
		t.Fatal(err)
	}
	log := newAckLog(t, st, base)
	log.commit(1)
	before := *syncs[walName(1)]
	if _, err := st.BeginCompact(log.live.Clone(), reasoner.ClosureState{}); err != nil {
		t.Fatal(err)
	}
	if *syncs[walName(1)] == before {
		t.Fatal("the pin rotated away from an unsynced WAL without an fsync")
	}
}
