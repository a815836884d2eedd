package durable_test

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/feo"
	"repro/internal/durable"
)

// blockFile wraps the snapshot temp file; its first Write reports that
// it entered the block and parks until released.
type blockFile struct {
	f       durable.WALFile
	once    sync.Once
	entered chan<- struct{}
	release <-chan struct{}
}

func (b *blockFile) Write(p []byte) (int, error) {
	b.once.Do(func() {
		b.entered <- struct{}{}
		<-b.release
	})
	return b.f.Write(p)
}

func (b *blockFile) Sync() error  { return b.f.Sync() }
func (b *blockFile) Close() error { return b.f.Close() }

// TestCompactWriteOffWriterLock blocks a compaction inside its snapshot
// write — one forced by Compact, one run by the commit that reached
// CompactBytes — and checks that a concurrent Explain commits meanwhile
// (the writer lock is free) and that a crash at that point recovers it
// from the new WAL; once released, the compaction installs and the
// directory folds to one snapshot and one WAL holding nothing older.
func TestCompactWriteOffWriterLock(t *testing.T) {
	for _, tc := range []struct {
		name         string
		compactBytes int64
		start        func(s *feo.Session) error
	}{
		{"Compact", 0, func(s *feo.Session) error { return s.Compact() }},
		{"size trigger", 1, func(s *feo.Session) error {
			_, err := s.Update("INSERT DATA { <http://x/trigger> <http://x/p> <http://x/o> . }")
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := feo.Open(feo.Options{DataDir: dir, CompactBytes: tc.compactBytes})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer s.Close()

			entered := make(chan struct{}, 1)
			release := make(chan struct{})
			unblock := sync.OnceFunc(func() { close(release) })
			defer unblock() // before Close, which waits for the compaction
			restore := durable.SetNewWALFile(func(path string, flag int) (durable.WALFile, error) {
				f, err := os.OpenFile(path, flag, 0o644)
				if err != nil {
					return nil, err
				}
				if !strings.HasSuffix(path, ".tmp") {
					return f, nil
				}
				return &blockFile{f: f, entered: entered, release: release}, nil
			})
			defer restore()

			started := make(chan error, 1)
			go func() { started <- tc.start(s) }()
			select {
			case <-entered: // the compaction is parked inside its snapshot write
			case <-time.After(30 * time.Second):
				t.Fatal("compaction never reached its snapshot write")
			}

			explained := make(chan error, 1)
			go func() {
				_, err := s.Explain(feo.Question{Type: feo.Contextual, Primary: feo.FEO("Sushi"), User: feo.FEO("User1")})
				explained <- err
			}()
			select {
			case err := <-explained:
				if err != nil {
					t.Fatalf("explain during the snapshot write: %v", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("explain blocked behind a compaction's snapshot write")
			}
			want := s.Graph().Clone()

			// Crash while the snapshot write is still parked.
			rec, err := feo.Open(feo.Options{DataDir: copyDataDir(t, dir)})
			if err != nil {
				t.Fatalf("recovery mid-compaction: %v", err)
			}
			if !rec.Graph().Equal(want) {
				t.Fatalf("recovery mid-compaction: %d triples, want %d", rec.Graph().Len(), want.Len())
			}
			rec.Close()

			unblock()
			if err := <-started; err != nil {
				t.Fatalf("compacting call after release: %v", err)
			}
			if n := s.CompactionFailures(); n != 0 {
				t.Fatalf("%d compactions failed", n)
			}
			wals, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
			if len(wals) != 1 || filepath.Base(wals[0]) != "wal-2.log" {
				t.Fatalf("after the compaction the WALs are %v, want [wal-2.log]", wals)
			}
			rec, err = feo.Open(feo.Options{DataDir: copyDataDir(t, dir)})
			if err != nil {
				t.Fatalf("recovery after compaction: %v", err)
			}
			defer rec.Close()
			if !rec.Graph().Equal(want) {
				t.Fatalf("recovery after compaction: %d triples, want %d", rec.Graph().Len(), want.Len())
			}
		})
	}
}

// copyDataDir copies a data directory's files into a fresh temp dir: what
// a crash at this instant leaves on disk.
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
