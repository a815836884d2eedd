package feo

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/rdf"
)

// Crash-fault-injection harness for the durability subsystem.
//
// The contract under test: a session opened on a data directory recovers to
// the state after some prefix of its acknowledged commits — with
// Sync: SyncAlways, exactly ALL of them — no matter where the write-ahead
// log was torn or bit-flipped, and the recovered session is behaviorally
// indistinguishable from an uncrashed replica that applied the same
// commits: same graph, same stats, same validation verdicts, same
// derivation proofs, same post-recovery explanation output (including the
// resumed question numbering).
//
// Process crashes are simulated by copying the data directory out from
// under a live session (never calling Close, so nothing is flushed on the
// way out) and damaging the copy's WAL tail.

// harnessOp is one deterministic session mutation, replayable on any
// session so a victim and its replica apply identical schedules. Bnode-free
// by construction: blank-node labels are process-global, so a schedule
// containing them would not replay identically.
type harnessOp struct {
	name    string
	explain *Question
	update  string
	turtle  string
}

func (op harnessOp) apply(s *Session) error {
	switch {
	case op.explain != nil:
		_, err := s.Explain(*op.explain)
		return err
	case op.update != "":
		_, err := s.Update(op.update)
		return err
	default:
		return s.LoadTurtle(op.turtle)
	}
}

// randomSchedule builds a deterministic mixed mutation schedule: fresh and
// repeated explanations, INSERT/DELETE DATA, Turtle loads, and (rarely) a
// CLEAR immediately refilled with a small document.
func randomSchedule(rng *rand.Rand, k int, allowClear bool) []harnessOp {
	recipes := []Term{FEO("CauliflowerPotatoCurry"), FEO("Sushi"), FEO("ButternutSquashSoup")}
	users := []Term{FEO("User1"), FEO("User2")}
	types := []ExplanationType{Contextual, Contrastive, Counterfactual, Everyday, Scientific}
	var ops []harnessOp
	for i := 0; len(ops) < k; i++ {
		switch n := rng.Intn(10); {
		case n < 4:
			q := Question{
				Type:    types[rng.Intn(len(types))],
				Primary: recipes[rng.Intn(len(recipes))],
				User:    users[rng.Intn(len(users))],
			}
			if q.Type == Contrastive {
				q.Secondary = recipes[rng.Intn(len(recipes))]
			}
			ops = append(ops, harnessOp{name: "explain", explain: &q})
		case n < 6:
			ops = append(ops, harnessOp{
				name: "insert",
				update: fmt.Sprintf(
					"INSERT DATA { <http://e/crash/s%d> <http://e/crash/p> <http://e/crash/o%d> . }",
					i, rng.Intn(3)),
			})
		case n < 7:
			ops = append(ops, harnessOp{
				name:   "delete",
				update: fmt.Sprintf("DELETE DATA { <http://e/crash/s%d> <http://e/crash/p> <http://e/crash/o0> . }", rng.Intn(i+1)),
			})
		case n < 9:
			ops = append(ops, harnessOp{
				name: "turtle",
				turtle: fmt.Sprintf(`@prefix c: <http://e/crash/> .
c:doc%d c:says "payload %d" ; c:links c:doc%d .`, i, rng.Intn(100), rng.Intn(i+1)),
			})
		default:
			if !allowClear {
				continue
			}
			ops = append(ops,
				harnessOp{name: "clear", update: "CLEAR"},
				harnessOp{name: "refill", turtle: `@prefix c: <http://e/crash/> .
c:seed c:says "post-clear world" .`})
		}
	}
	return ops[:k]
}

// copyDataDir clones a durability directory (snapshot + WALs) into a fresh
// temp dir.
func copyDataDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func walPath(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("expected exactly one WAL in %s, got %v (%v)", dir, matches, err)
	}
	return matches[0]
}

// seedBaseDir builds the shared CQ-dataset data directory the harness
// copies for every victim and replica, so all of them boot from the same
// snapshot (and therefore the same blank-node labels).
func seedBaseDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(Options{Data: DataCQ, DataDir: dir})
	if err != nil {
		t.Fatalf("seed open: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("seed close: %v", err)
	}
	return dir
}

func openReplayed(t *testing.T, dir string) *Session {
	t.Helper()
	s, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	if !s.Replayed() {
		t.Fatalf("session on %s did not replay", dir)
	}
	return s
}

// assertSessionsEqual checks two sessions are behaviorally identical:
// graph, version, stats, validation verdicts, and derivation proofs for
// every triple in the graph. Proofs are compared (not raw closure state)
// because a CLEAR leaves the live session's derivation trace holding
// entries for triples no longer in the graph, which replay legitimately
// drops — observable behavior is identical either way.
func assertSessionsEqual(t *testing.T, label string, got, want *Session) {
	t.Helper()
	if !got.Graph().Equal(want.Graph()) {
		t.Fatalf("%s: graphs differ (%d vs %d triples)", label, got.Graph().Len(), want.Graph().Len())
	}
	if got.Graph().Version() != want.Graph().Version() {
		t.Fatalf("%s: versions differ: %d vs %d", label, got.Graph().Version(), want.Graph().Version())
	}
	if g, w := got.Stats(), want.Stats(); g != w {
		t.Fatalf("%s: stats differ:\n got %s\nwant %s", label, g, w)
	}
	if g, w := fmt.Sprint(got.Validate()), fmt.Sprint(want.Validate()); g != w {
		t.Fatalf("%s: validation verdicts differ:\n got %s\nwant %s", label, g, w)
	}
	for i, tr := range got.Graph().Triples() {
		if i%7 != 0 { // sample; full proof-by-proof comparison is O(n·depth)
			continue
		}
		g := got.ExplainTriple(tr.S, tr.P, tr.O)
		w := want.ExplainTriple(tr.S, tr.P, tr.O)
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: proof for %v differs:\n got %v\nwant %v", label, tr, g, w)
		}
	}
}

func TestCrashRecoveryHarness(t *testing.T) {
	base := seedBaseDir(t)

	// Fixed seed matrix — CI runs exactly these.
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			victimDir := copyDataDir(t, base)
			victim := openReplayed(t, victimDir)

			const k = 8
			ops := randomSchedule(rng, k, seed%2 == 0)
			// ackStates[i] = victim graph after i acknowledged commits.
			ackStates := []*Graph{victim.Graph().Clone()}
			for _, op := range ops {
				op.apply(victim) // errors allowed; partial mutations are state
				ackStates = append(ackStates, victim.Graph().Clone())
			}
			// Crash: never Close the victim; its WAL is already durable
			// (SyncAlways), so the on-disk state is the acknowledged state.
			wal := mustReadFile(t, walPath(t, victimDir))

			// Clean crash: recovery must land on ALL acknowledged commits.
			cleanDir := copyDataDir(t, victimDir)
			clean := openReplayed(t, cleanDir)
			if !clean.Graph().Equal(ackStates[k]) {
				t.Fatal("clean crash lost acknowledged commits")
			}

			// Uncrashed replica: replay the same schedule from the same
			// base; the recovered session must be indistinguishable.
			replica := openReplayed(t, copyDataDir(t, base))
			for _, op := range ops {
				op.apply(replica)
			}
			assertSessionsEqual(t, "recovered-vs-replica", clean, replica)

			// Post-recovery behavior: one more schedule on both; question
			// numbering must resume, not collide, so outputs stay equal.
			for _, op := range randomSchedule(rng, 3, false) {
				gotErr := op.apply(clean)
				wantErr := op.apply(replica)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("post-recovery op %s error divergence: %v vs %v", op.name, gotErr, wantErr)
				}
			}
			assertSessionsEqual(t, "post-recovery", clean, replica)
			clean.Close()
			replica.Close()

			// Torn tails: cut the WAL at random offsets; recovery must land
			// on a commit-boundary prefix of the acknowledged states, never
			// a partial commit, never an error or panic.
			for trial := 0; trial < 6; trial++ {
				cut := rng.Intn(len(wal))
				tornDir := copyDataDir(t, victimDir)
				if err := os.WriteFile(walPath(t, tornDir), wal[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				s, err := Open(Options{DataDir: tornDir})
				if err != nil {
					t.Fatalf("cut %d: recovery failed: %v", cut, err)
				}
				if m := matchPrefix(s.Graph(), ackStates); m < 0 {
					t.Fatalf("cut %d: recovered state is not an acknowledged prefix", cut)
				}
				s.Close()
			}

			// Bit flips anywhere in the log: same prefix guarantee.
			for trial := 0; trial < 6; trial++ {
				mut := append([]byte(nil), wal...)
				mut[rng.Intn(len(mut))] ^= 1 << rng.Intn(8)
				flipDir := copyDataDir(t, victimDir)
				if err := os.WriteFile(walPath(t, flipDir), mut, 0o644); err != nil {
					t.Fatal(err)
				}
				s, err := Open(Options{DataDir: flipDir})
				if err != nil {
					t.Fatalf("flip %d: recovery failed: %v", trial, err)
				}
				if m := matchPrefix(s.Graph(), ackStates); m < 0 {
					t.Fatalf("flip %d: recovered state is not an acknowledged prefix", trial)
				}
				s.Close()
			}
			victim.Close()
		})
	}
}

func matchPrefix(g *Graph, states []*Graph) int {
	for i, st := range states {
		if g.Equal(st) {
			return i
		}
	}
	return -1
}

func mustReadFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRecoveryDirectedCases pins the corner cases the randomized harness
// reaches only by luck.
func TestRecoveryDirectedCases(t *testing.T) {
	base := seedBaseDir(t)

	t.Run("snapshot-only boot", func(t *testing.T) {
		// Deleting the (empty) WAL entirely must still boot: the snapshot
		// alone is a valid prefix-0 recovery.
		dir := copyDataDir(t, base)
		if err := os.Remove(walPath(t, dir)); err != nil {
			t.Fatal(err)
		}
		s := openReplayed(t, dir)
		defer s.Close()
		want := openReplayed(t, copyDataDir(t, base))
		defer want.Close()
		if !s.Graph().Equal(want.Graph()) {
			t.Fatal("snapshot-only boot lost state")
		}
	})

	t.Run("empty WAL", func(t *testing.T) {
		dir := copyDataDir(t, base)
		if err := os.Truncate(walPath(t, dir), 0); err != nil {
			t.Fatal(err)
		}
		s := openReplayed(t, dir)
		defer s.Close()
		if _, err := s.Update("INSERT DATA { <http://e/x> <http://e/p> <http://e/y> . }"); err != nil {
			t.Fatalf("append after empty-WAL boot: %v", err)
		}
	})

	t.Run("clear in WAL", func(t *testing.T) {
		dir := copyDataDir(t, base)
		s := openReplayed(t, dir)
		if _, err := s.Update("CLEAR"); err != nil {
			t.Fatal(err)
		}
		if err := s.LoadTurtle(`@prefix c: <http://e/crash/> . c:a c:p c:b .`); err != nil {
			t.Fatal(err)
		}
		want := s.Graph().Clone()
		// Crash (no Close) and recover.
		s2 := openReplayed(t, copyDataDir(t, dir))
		defer s2.Close()
		if !s2.Graph().Equal(want) {
			t.Fatalf("CLEAR did not replay: %d triples, want %d", s2.Graph().Len(), want.Len())
		}
		// The recovered session accepts further commits on the post-Clear
		// dictionary.
		if _, err := s2.Update("INSERT DATA { <http://e/crash/c> <http://e/crash/p> <http://e/crash/d> . }"); err != nil {
			t.Fatalf("append after CLEAR recovery: %v", err)
		}
		s.Close()
	})

	t.Run("clear and derive in one update", func(t *testing.T) {
		// The commit's record starts with Clear and carries the
		// derivations inferred after it, journaled against the new
		// dictionary; replay must rebuild the same proofs.
		dir := copyDataDir(t, base)
		s := openReplayed(t, dir)
		defer s.Close()
		res, err := s.Update(`CLEAR ;
INSERT DATA {
  <http://e/crash/A> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://e/crash/B> .
  <http://e/crash/B> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://e/crash/C> .
  <http://e/crash/p> <http://www.w3.org/2000/01/rdf-schema#domain> <http://e/crash/A> .
  <http://e/crash/x> <http://e/crash/p> <http://e/crash/y> .
}`)
		if err != nil {
			t.Fatal(err)
		}
		if res.Inserted != 4 {
			t.Fatalf("inserted %d triples, want 4", res.Inserted)
		}
		xc := rdf.Triple{S: rdf.NewIRI("http://e/crash/x"), P: rdf.TypeIRI, O: rdf.NewIRI("http://e/crash/C")}
		if p := s.ExplainTriple(xc.S, xc.P, xc.O); len(p) < 3 {
			t.Fatalf("live proof of %v = %v, want a multi-step chain", xc, p)
		}
		// Crash (no Close) and recover from the WAL alone.
		s2 := openReplayed(t, copyDataDir(t, dir))
		defer s2.Close()
		if !s2.Graph().Equal(s.Graph()) {
			t.Fatalf("recovered %d triples, want %d", s2.Graph().Len(), s.Graph().Len())
		}
		for _, tr := range s.Graph().Triples() {
			got := s2.ExplainTriple(tr.S, tr.P, tr.O)
			want := s.ExplainTriple(tr.S, tr.P, tr.O)
			if len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Fatalf("proof for %v:\n got %v\nwant %v", tr, got, want)
			}
		}
	})

	t.Run("question numbering resumes", func(t *testing.T) {
		dir := copyDataDir(t, base)
		s := openReplayed(t, dir)
		q := Question{Type: Contextual, Primary: FEO("Sushi"), User: FEO("User1")}
		if _, err := s.Explain(q); err != nil {
			t.Fatal(err)
		}
		q2 := Question{Type: Everyday, User: FEO("User2")}
		if _, err := s.Explain(q2); err != nil {
			t.Fatal(err)
		}
		countQuestions := func(g *Graph) int {
			n := 0
			for _, tr := range g.Triples() {
				if tr.P == rdf.TypeIRI && strings.HasPrefix(tr.S.Value, rdf.KGNS+"question/q") {
					if tr.O.Value == rdf.FEONS+"FoodQuestion" {
						n++
					}
				}
			}
			return n
		}
		before := countQuestions(s.Graph())

		s2 := openReplayed(t, copyDataDir(t, dir))
		defer s2.Close()
		// A repeated question reuses its individual; a fresh one mints the
		// next sequence number instead of colliding with a replayed IRI.
		if _, err := s2.Explain(q); err != nil {
			t.Fatal(err)
		}
		if got := countQuestions(s2.Graph()); got != before {
			t.Fatalf("repeated question after recovery minted a duplicate: %d vs %d", got, before)
		}
		q3 := Question{Type: Scientific, Primary: FEO("CauliflowerPotatoCurry"), User: FEO("User1")}
		if _, err := s2.Explain(q3); err != nil {
			t.Fatal(err)
		}
		if got := countQuestions(s2.Graph()); got != before+1 {
			t.Fatalf("fresh question after recovery: %d questions, want %d", got, before+1)
		}
		s.Close()
	})

	t.Run("version monotonic across restart", func(t *testing.T) {
		dir := copyDataDir(t, base)
		s := openReplayed(t, dir)
		if _, err := s.Update("INSERT DATA { <http://e/v> <http://e/p> <http://e/w> . }"); err != nil {
			t.Fatal(err)
		}
		v := s.Graph().Version()
		s.Close()
		s2 := openReplayed(t, dir)
		defer s2.Close()
		if s2.Graph().Version() != v {
			t.Fatalf("version changed across restart: %d -> %d", v, s2.Graph().Version())
		}
		if _, err := s2.Update("INSERT DATA { <http://e/v2> <http://e/p> <http://e/w2> . }"); err != nil {
			t.Fatal(err)
		}
		if s2.Graph().Version() <= v {
			t.Fatalf("version not monotonic after restart: %d <= %d", s2.Graph().Version(), v)
		}
	})

	// A WAL chain: two failed compactions (a directory squats on the
	// snapshot temp file's name) leave snapshot 1 with wal-1, wal-2 and
	// wal-3, two commits in each of the first two and one in the third.
	chainDir := copyDataDir(t, base)
	chain := openReplayed(t, chainDir)
	chainStates := []*Graph{chain.Graph().Clone()}
	var sizeBefore []int64 // each commit's WAL size before it
	for i := 0; i < 5; i++ {
		if i == 2 || i == 4 {
			tmp := filepath.Join(chainDir, "snapshot.bin.tmp")
			if err := os.Mkdir(tmp, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := chain.Compact(); err == nil {
				t.Fatal("compaction over a squatted temp file succeeded")
			}
			os.Remove(tmp)
		}
		wals, _ := filepath.Glob(filepath.Join(chainDir, "wal-*.log"))
		fi, err := os.Stat(wals[len(wals)-1])
		if err != nil {
			t.Fatal(err)
		}
		sizeBefore = append(sizeBefore, fi.Size())
		if _, err := chain.Update(fmt.Sprintf("INSERT DATA { <http://e/chain%d> <http://e/p> <http://e/o> . }", i)); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		chainStates = append(chainStates, chain.Graph().Clone())
	}
	if got := chain.CompactionFailures(); got != 2 {
		t.Fatalf("CompactionFailures = %d, want 2", got)
	}
	for _, tc := range []struct {
		name   string
		damage func(dir string) error
		want   int      // acknowledged state recovered
		wals   []string // WALs left after recovery
	}{
		{"chain intact", func(string) error { return nil }, 5,
			[]string{"wal-1.log", "wal-2.log", "wal-3.log"}},
		{"chain gap", func(dir string) error {
			return os.Remove(filepath.Join(dir, "wal-2.log"))
		}, 2, []string{"wal-1.log"}},
		{"chain base-version mismatch", func(dir string) error {
			// Drop wal-1's last record whole: wal-1 stays intact, but
			// wal-2 no longer builds on the version it reaches.
			return os.Truncate(filepath.Join(dir, "wal-1.log"), sizeBefore[1])
		}, 1, []string{"wal-1.log"}},
		{"chain torn older WAL", func(dir string) error {
			return os.Truncate(filepath.Join(dir, "wal-1.log"), sizeBefore[1]+7)
		}, 1, []string{"wal-1.log"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := copyDataDir(t, chainDir)
			if err := tc.damage(dir); err != nil {
				t.Fatal(err)
			}
			s := openReplayed(t, dir)
			defer s.Close()
			if m := matchPrefix(s.Graph(), chainStates); m != tc.want {
				t.Fatalf("recovered acknowledged state %d, want %d", m, tc.want)
			}
			wals, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
			for i := range wals {
				wals[i] = filepath.Base(wals[i])
			}
			if !reflect.DeepEqual(wals, tc.wals) {
				t.Fatalf("WALs after recovery: %v, want %v", wals, tc.wals)
			}
			// The recovered session commits onto the chain's end, and a
			// compaction folds the chain into one snapshot.
			if _, err := s.Update("INSERT DATA { <http://e/chain/after> <http://e/p> <http://e/o> . }"); err != nil {
				t.Fatal(err)
			}
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			after := openReplayed(t, copyDataDir(t, dir))
			defer after.Close()
			if !after.Graph().Equal(s.Graph()) {
				t.Fatal("state lost across the compaction of a recovered chain")
			}
		})
	}
	chain.Close()

	t.Run("auto compaction", func(t *testing.T) {
		dir := copyDataDir(t, base)
		s, err := Open(Options{DataDir: dir, CompactBytes: 1}) // compact after every commit
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := s.Update(fmt.Sprintf("INSERT DATA { <http://e/ac%d> <http://e/p> <http://e/o> . }", i)); err != nil {
				t.Fatal(err)
			}
		}
		want := s.Graph().Clone()
		s.Close()
		s2 := openReplayed(t, dir)
		defer s2.Close()
		if !s2.Graph().Equal(want) {
			t.Fatal("state lost across auto-compactions")
		}
	})
}

// TestAutoCompactionFailureKeepsCommit: a size-triggered compaction that
// fails does not fail the commit that triggered it. That commit is
// already logged; it is acknowledged, counted in CompactionFailures, and
// recovered from the WAL chain. The next trigger compacts.
func TestAutoCompactionFailureKeepsCommit(t *testing.T) {
	dir := copyDataDir(t, seedBaseDir(t))
	s, err := Open(Options{DataDir: dir, CompactBytes: 1}) // compact after every commit
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// A directory squatting on the temp file's name fails the snapshot
	// write, even for root.
	tmp := filepath.Join(dir, "snapshot.bin.tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Explain(Question{Type: Contextual, Primary: FEO("Sushi"), User: FEO("User1")}); err != nil {
		t.Fatalf("explain whose compaction failed: %v", err)
	}
	if got := s.CompactionFailures(); got != 1 {
		t.Fatalf("CompactionFailures = %d, want 1", got)
	}
	if err := os.Remove(tmp); err != nil {
		t.Fatal(err)
	}
	crashed := openReplayed(t, copyDataDir(t, dir))
	if !crashed.Graph().Equal(s.Graph()) {
		t.Fatal("the acknowledged explanation was not recovered")
	}
	crashed.Close()

	if _, err := s.Update("INSERT DATA { <http://e/retry> <http://e/p> <http://e/o> . }"); err != nil {
		t.Fatal(err)
	}
	if got := s.CompactionFailures(); got != 1 {
		t.Fatalf("CompactionFailures after the retry = %d, want 1", got)
	}
	after := openReplayed(t, copyDataDir(t, dir))
	defer after.Close()
	if !after.Graph().Equal(s.Graph()) {
		t.Fatal("state lost across the retried compaction")
	}
	if wal := filepath.Base(walPath(t, dir)); wal != "wal-3.log" {
		t.Fatalf("live WAL after the retry is %s, want wal-3.log", wal)
	}
}
