package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/rdf"
	"repro/internal/reasoner"
	"repro/internal/store"
)

// SyncPolicy selects when appended WAL records are fsynced; see the
// package documentation for the guarantee each policy buys.
type SyncPolicy int

// Sync policies, strongest first.
const (
	// SyncAlways fsyncs after every appended record (the default).
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs from a background goroutine every SyncEvery.
	SyncInterval
	// SyncNever never fsyncs; the OS flushes on its own schedule.
	SyncNever
)

// Options configures a Store.
type Options struct {
	// Sync selects the fsync policy. Default SyncAlways.
	Sync SyncPolicy
	// SyncEvery is the background fsync period under SyncInterval.
	// Zero means 100ms.
	SyncEvery time.Duration
}

// Record is one durable commit: the ordered mutation stream a session
// write applied (asserted and inferred triples alike, exactly as the store
// executed them), plus the state the reasoner must re-carry after replay.
type Record struct {
	// Cleared reports the commit began with Graph.Clear; Ops then holds
	// only the post-Clear mutations.
	Cleared bool
	// Ops is the commit's ordered add/remove stream.
	Ops []store.TermOp
	// EndVersion is the graph's mutation version when the commit finished.
	EndVersion uint64
	// TotalInferred is the reasoner's cumulative inferred count after the
	// commit.
	TotalInferred int
	// Derivations is the derivation-trace delta the commit recorded.
	Derivations []reasoner.TracedDerivation
	// Namespaces is the graph's prefix table after the commit, set only
	// when the commit changed it (a Turtle @prefix or @base); nil leaves
	// the recovered table as it was. Append encodes it before returning,
	// so the caller may pass its live table.
	Namespaces *rdf.Namespaces
}

// Boot is what Open recovered from the data directory.
type Boot struct {
	// Graph is the recovered graph: the snapshot with every intact WAL
	// record replayed onto it. Nil when the directory holds no snapshot
	// yet (a fresh directory) — the caller must build its initial state
	// and seed the store with Compact before appending.
	Graph *store.Graph
	// Closure is the reasoner closure state matching Graph, its IDs in
	// Graph's dictionary.
	Closure reasoner.ClosureState
	// Generation is the recovered snapshot generation.
	Generation uint64
	// Records counts the WAL records replayed onto the snapshot.
	Records int
	// Truncated reports that replay found a torn or corrupt tail and
	// truncated the WAL at the last intact record.
	Truncated bool
}

const (
	snapshotName     = "snapshot.bin"
	snapMagic        = "FEOSNAP1"
	walMagic         = "FEOWAL01"
	frameHeaderLen   = 8 // uint32 payload length + uint32 CRC-32C
	defaultSyncEvery = 100 * time.Millisecond
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// walFile is the handle the Store writes records through. It is a seam:
// the crash-fault-injection tests swap newWALFile for a failpoint
// implementation that dies mid-write at a chosen byte offset.
type walFile interface {
	io.Writer
	Sync() error
	Close() error
}

// newWALFile opens WAL files; a package variable so tests can inject
// write/sync faults.
var newWALFile = func(path string, flag int) (walFile, error) {
	return os.OpenFile(path, flag, 0o644)
}

// Store is an open data directory: the WAL append handle plus the
// bookkeeping Compact needs. Append/Compact/Sync/Close are safe for
// concurrent use, but the caller must serialize Append against the graph
// mutations it records (feo.Session's write lock does).
type Store struct {
	dir  string
	opts Options

	mu     sync.Mutex
	gen    uint64
	wal    walFile
	path   string
	size   int64
	dirty  bool // bytes written since the last fsync
	broken error

	stop     chan struct{}
	syncDone chan struct{}
}

func walName(gen uint64) string { return fmt.Sprintf("wal-%d.log", gen) }

// Open recovers the data directory: load the snapshot, replay the matching
// WAL (truncating a torn tail), delete stale files from interrupted
// compactions, and return both the recovered state and a Store ready for
// appends. A directory with no snapshot returns Boot.Graph == nil; seed it
// with Compact before the first Append.
func Open(dir string, opts Options) (*Store, *Boot, error) {
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = defaultSyncEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	st := &Store{dir: dir, opts: opts}
	boot := &Boot{}
	// Leftovers from an interrupted compaction (classic or two-phase) are
	// never part of recovered state; drop them so they cannot be confused
	// for one.
	os.Remove(filepath.Join(dir, snapshotName+".tmp"))
	os.Remove(filepath.Join(dir, snapshotName+".pending"))

	gen, g, closure, err := readSnapshotFile(filepath.Join(dir, snapshotName))
	if err != nil {
		return nil, nil, err
	}
	st.gen = gen
	boot.Generation = gen
	boot.Graph = g
	boot.Closure = closure

	// Delete WALs from other generations: either stale files an
	// interrupted compaction left behind (their records are folded into
	// the surviving snapshot) or orphans in a directory whose snapshot
	// never got written (no acknowledged state can exist without one).
	stale, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	live := filepath.Join(dir, walName(gen))
	for _, p := range stale {
		if g == nil || p != live {
			if err := os.Remove(p); err != nil {
				return nil, nil, err
			}
		}
	}
	if g == nil {
		st.startSyncer()
		return st, boot, nil
	}

	if err := st.recoverWAL(live, g, boot); err != nil {
		return nil, nil, err
	}
	st.startSyncer()
	return st, boot, nil
}

// recoverWAL replays the live WAL onto g, truncates a torn tail, and opens
// the append handle. A missing or header-corrupt WAL is reinitialized
// empty (prefix-0 recovery: the snapshot alone is the recovered state).
func (st *Store) recoverWAL(path string, g *store.Graph, boot *Boot) error {
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		data = nil
	case err != nil:
		return err
	}

	valid := int64(0)
	if len(data) >= len(walMagic) && string(data[:len(walMagic)]) == walMagic {
		if hdrEnd, ok := st.checkHeader(data); ok {
			valid = hdrEnd
			off := hdrEnd
			for {
				payload, next, ok := readFrame(data, off)
				if !ok {
					break
				}
				rec, err := parseRecord(payload)
				if err != nil {
					break
				}
				applyRecord(g, &boot.Closure, rec)
				boot.Records++
				valid, off = next, next
			}
			if valid < int64(len(data)) {
				boot.Truncated = true
			}
		}
	} else if len(data) > 0 {
		boot.Truncated = true
	}

	if valid == 0 {
		// No intact header: reinitialize the WAL for this generation.
		if len(data) > 0 {
			boot.Truncated = true
		}
		wal, size, err := createWAL(path, st.gen, g.Version())
		if err != nil {
			return err
		}
		st.wal, st.path, st.size = wal, path, size
		return nil
	}
	if valid < int64(len(data)) {
		if err := os.Truncate(path, valid); err != nil {
			return err
		}
	}
	wal, err := newWALFile(path, os.O_WRONLY|os.O_APPEND)
	if err != nil {
		return err
	}
	st.wal, st.path, st.size = wal, path, valid
	return nil
}

// checkHeader validates the WAL's header frame (frame 0) and returns the
// offset where record frames begin.
func (st *Store) checkHeader(data []byte) (int64, bool) {
	payload, next, ok := readFrame(data, int64(len(walMagic)))
	if !ok {
		return 0, false
	}
	d := &decoder{buf: payload}
	gen := d.uvarint()
	d.uvarint() // base version, informational
	if d.err != nil || len(d.buf) != 0 || gen != st.gen {
		return 0, false
	}
	return next, true
}

// readFrame parses the frame at off: payload, offset past the frame, and
// whether the frame is intact (length in bounds, CRC matches).
func readFrame(data []byte, off int64) ([]byte, int64, bool) {
	if off+frameHeaderLen > int64(len(data)) {
		return nil, 0, false
	}
	n := int64(binary.LittleEndian.Uint32(data[off:]))
	sum := binary.LittleEndian.Uint32(data[off+4:])
	start := off + frameHeaderLen
	if start+n > int64(len(data)) {
		return nil, 0, false
	}
	payload := data[start : start+n]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, 0, false
	}
	return payload, start + n, true
}

// appendFrame frames payload (length + CRC-32C header) onto buf.
func appendFrame(buf, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
	return append(append(buf, hdr[:]...), payload...)
}

// applyRecord replays one WAL record onto the recovered graph and closure
// accumulator. Ops replay verbatim — no rule evaluation — because the
// stream already contains every inferred triple the original commit added.
// The record's derivations are then mapped into the graph's dictionary
// (the ops have interned their terms; a premise term they did not mention
// is interned here), so the accumulator stays in ID space.
func applyRecord(g *store.Graph, closure *reasoner.ClosureState, rec Record) {
	if rec.Cleared {
		g.Clear()
		closure.Derivations = nil
	}
	for _, op := range rec.Ops {
		if op.Remove {
			g.Remove(op.T.S, op.T.P, op.T.O)
		} else {
			g.AddTriple(op.T)
		}
	}
	g.ForceVersion(rec.EndVersion)
	if rec.Namespaces != nil {
		ns := g.Namespaces()
		for _, p := range rec.Namespaces.Prefixes() {
			iri, _ := rec.Namespaces.IRIFor(p)
			ns.Bind(p, iri)
		}
		ns.SetBase(rec.Namespaces.Base())
	}
	closure.TotalInferred = rec.TotalInferred
	if len(rec.Derivations) == 0 {
		return
	}
	intern := func(t rdf.Triple) store.IDTriple {
		return store.IDTriple{S: g.InternTerm(t.S), P: g.InternTerm(t.P), O: g.InternTerm(t.O)}
	}
	n := 0
	for _, dv := range rec.Derivations {
		n += len(dv.Premises)
	}
	arena := make([]store.IDTriple, 0, n)
	for _, dv := range rec.Derivations {
		start := len(arena)
		for _, p := range dv.Premises {
			arena = append(arena, intern(p))
		}
		closure.Derivations = append(closure.Derivations, reasoner.IDDerivation{
			Conclusion: intern(dv.Conclusion),
			Rule:       dv.Rule,
			Premises:   arena[start:len(arena):len(arena)],
		})
	}
}

// createWAL writes a fresh WAL (magic + header frame) and returns the open
// append handle and its size.
func createWAL(path string, gen, baseVersion uint64) (walFile, int64, error) {
	e := &encoder{buf: []byte(walMagic)}
	hdr := &encoder{}
	hdr.uvarint(gen)
	hdr.uvarint(baseVersion)
	e.buf = appendFrame(e.buf, hdr.buf)

	f, err := newWALFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC)
	if err != nil {
		return nil, 0, err
	}
	if _, err := f.Write(e.buf); err != nil {
		f.Close()
		return nil, 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, int64(len(e.buf)), nil
}

// Append frames rec, writes it to the WAL, and applies the sync policy.
// On a write error the Store is poisoned: the log may end in a torn frame,
// so accepting further appends could strand acknowledged records behind an
// unreadable middle; every later Append fails until a Compact rewrites the
// log. The caller must not acknowledge the commit when Append errors.
//
//feo:wal-append
func (st *Store) Append(rec Record) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.broken != nil {
		return st.broken
	}
	if st.wal == nil {
		return errors.New("durable: store has no snapshot yet (seed with Compact)")
	}
	frame := appendFrame(nil, appendRecord(nil, rec))
	if _, err := st.wal.Write(frame); err != nil {
		st.broken = fmt.Errorf("durable: WAL append failed (store poisoned until compaction): %w", err)
		return st.broken
	}
	st.size += int64(len(frame))
	if st.opts.Sync == SyncAlways {
		if err := st.wal.Sync(); err != nil {
			st.broken = fmt.Errorf("durable: WAL sync failed (store poisoned until compaction): %w", err)
			return st.broken
		}
	} else {
		st.dirty = true
	}
	return nil
}

// WALSize returns the current WAL length in bytes — the compaction
// trigger's input.
func (st *Store) WALSize() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.size
}

// Generation returns the current snapshot generation.
func (st *Store) Generation() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.gen
}

// Compact durably writes (g, closure) as the next-generation snapshot and
// rotates the WAL: snapshot to a temp file, fsync, atomic rename over
// snapshot.bin, directory fsync, fresh wal-(G+1).log, then delete the old
// log. The caller must guarantee g and closure are quiescent and include
// every record appended so far (feo.Session calls it under its write
// lock). Compaction also repairs a poisoned Store: the new snapshot
// captures the full in-memory state, so the torn log is obsolete.
func (st *Store) Compact(g *store.Graph, closure reasoner.ClosureState) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	newGen := st.gen + 1
	if err := writeSnapshotFile(st.dir, newGen, g, closure); err != nil {
		return err
	}
	// The new snapshot is durable; from here the old WAL is obsolete and
	// any crash recovers from the new generation (Open deletes leftovers).
	st.rotateWAL(newGen, g.Version())
	return st.broken
}

// rotateWAL switches the store to a fresh WAL for newGen after its
// snapshot has durably replaced snapshot.bin: close the old log, create
// wal-newGen.log, fsync the directory, delete the old log. On success the
// store is healthy (broken cleared — the new snapshot captures the full
// state, so a previously torn log is obsolete); on failure it is
// poisoned. st.mu held by the caller.
func (st *Store) rotateWAL(newGen, baseVersion uint64) {
	oldWAL := st.path
	if st.wal != nil {
		st.wal.Close()
		st.wal = nil
	}
	path := filepath.Join(st.dir, walName(newGen))
	wal, size, err := createWAL(path, newGen, baseVersion)
	if err != nil {
		st.broken = fmt.Errorf("durable: WAL rotation failed (store poisoned): %w", err)
		return
	}
	if err := syncDir(st.dir); err != nil {
		wal.Close()
		st.broken = fmt.Errorf("durable: WAL rotation failed (store poisoned): %w", err)
		return
	}
	if oldWAL != "" && oldWAL != path {
		os.Remove(oldWAL) // best-effort; Open cleans up leftovers
	}
	st.gen, st.wal, st.path, st.size = newGen, wal, path, size
	st.dirty = false
	st.broken = nil
}

// PendingCompact is a two-phase compaction in flight: BeginCompact
// reserved the generation, WriteSnapshot durably wrote its bytes to a
// side file, and Install/Abort decides whether that file becomes the
// store's snapshot. The pending file is invisible to recovery — a crash
// at any point before Install leaves the store exactly as it was.
type PendingCompact struct {
	st   *Store
	gen  uint64
	path string
	done bool
}

// BeginCompact reserves the next snapshot generation for a two-phase
// compaction. Cheap (one lock acquisition); the caller then serializes
// the state with WriteSnapshot — typically off every lock, from an
// immutable store.Snapshot view — and finishes with Install or Abort.
func (st *Store) BeginCompact() (*PendingCompact, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.broken == errClosed {
		return nil, errClosed
	}
	return &PendingCompact{
		st:   st,
		gen:  st.gen + 1,
		path: filepath.Join(st.dir, snapshotName+".pending"),
	}, nil
}

// WriteSnapshot serializes (g, closure) as the pending generation's
// snapshot and fsyncs it to the side file. This is the heavy step —
// encode plus fsync — and takes no Store lock: appends and even a
// concurrent classic Compact proceed freely while it runs. The caller
// must guarantee g and closure do not mutate during the call; a frozen
// snapshot view satisfies that by construction.
func (pc *PendingCompact) WriteSnapshot(g *store.Graph, closure reasoner.ClosureState) error {
	data, err := encodeSnapshot(pc.gen, g, closure)
	if err != nil {
		return err
	}
	return writeFileSync(pc.path, data)
}

// Install atomically promotes the pending snapshot file to snapshot.bin
// and rotates the WAL to the new generation at baseVersion. The caller
// must guarantee — under whatever lock serializes its writers — that no
// record has been appended since the state WriteSnapshot serialized
// (otherwise those acknowledged records would be lost with the rotation;
// verify the graph version and Abort instead). Install fails without
// side effects if another compaction already took the generation.
func (pc *PendingCompact) Install(baseVersion uint64) error {
	st := pc.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if pc.done {
		return errors.New("durable: Install on a finished compaction")
	}
	pc.done = true
	if st.broken == errClosed {
		os.Remove(pc.path)
		return errClosed
	}
	if st.gen+1 != pc.gen {
		os.Remove(pc.path)
		return fmt.Errorf("durable: pending compaction superseded (generation %d is taken)", pc.gen)
	}
	if err := os.Rename(pc.path, filepath.Join(st.dir, snapshotName)); err != nil {
		os.Remove(pc.path)
		return err
	}
	if err := syncDir(st.dir); err != nil {
		// The rename may or may not be durable; either way recovery is
		// sound (the old WAL's records are folded into both generations),
		// but this store's log state is now unknown — poison it.
		st.broken = fmt.Errorf("durable: snapshot install failed (store poisoned): %w", err)
		return st.broken
	}
	st.rotateWAL(pc.gen, baseVersion)
	return st.broken
}

// Abort discards the pending snapshot file. Safe to call at any point
// after BeginCompact; idempotent.
func (pc *PendingCompact) Abort() {
	if pc.done {
		return
	}
	pc.done = true
	os.Remove(pc.path)
}

// Sync forces an fsync of the WAL now, regardless of policy.
//
//feo:wal-sync
func (st *Store) Sync() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.syncLocked()
}

//feo:wal-sync
func (st *Store) syncLocked() error {
	if st.broken != nil {
		return st.broken
	}
	if st.wal == nil || !st.dirty {
		return nil
	}
	if err := st.wal.Sync(); err != nil {
		st.broken = fmt.Errorf("durable: WAL sync failed (store poisoned until compaction): %w", err)
		return st.broken
	}
	st.dirty = false
	return nil
}

var errClosed = errors.New("durable: store is closed")

// Close flushes and closes the WAL. The Store accepts no appends
// afterwards.
func (st *Store) Close() error {
	if st.stop != nil {
		close(st.stop)
		<-st.syncDone
		st.stop = nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.broken == errClosed {
		return nil
	}
	err := st.syncLocked()
	if st.wal != nil {
		if cerr := st.wal.Close(); err == nil {
			err = cerr
		}
		st.wal = nil
	}
	st.broken = errClosed
	if err == errClosed {
		err = nil
	}
	return err
}

// startSyncer launches the SyncInterval background fsync goroutine.
func (st *Store) startSyncer() {
	if st.opts.Sync != SyncInterval {
		return
	}
	st.stop = make(chan struct{})
	st.syncDone = make(chan struct{})
	go func() {
		defer close(st.syncDone)
		ticker := time.NewTicker(st.opts.SyncEvery)
		defer ticker.Stop()
		for {
			select {
			case <-st.stop:
				return
			case <-ticker.C:
				st.mu.Lock()
				if st.broken == nil {
					if err := st.syncLocked(); err != nil && st.broken == nil {
						st.broken = err
					}
				}
				st.mu.Unlock()
			}
		}
	}()
}

// ---- snapshot file ----

// encodeSnapshot serializes generation gen of (g, closure) to the
// snapshot file format: magic + payload + trailing CRC-32C over
// everything before it.
func encodeSnapshot(gen uint64, g *store.Graph, closure reasoner.ClosureState) ([]byte, error) {
	var gbuf bytes.Buffer
	if err := g.WriteSnapshot(&gbuf); err != nil {
		return nil, err
	}
	e := &encoder{buf: []byte(snapMagic)}
	e.uvarint(gen)
	e.uvarint(uint64(gbuf.Len()))
	e.buf = append(e.buf, gbuf.Bytes()...)
	e.buf = appendClosure(e.buf, closure)
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.Checksum(e.buf, castagnoli))
	return append(e.buf, sum[:]...), nil
}

// writeFileSync replaces path with data and fsyncs it; on error the file
// is removed.
//
//feo:wal-sync
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return err
	}
	return nil
}

// writeSnapshotFile atomically replaces dir/snapshot.bin with generation
// gen of (g, closure): temp file, fsync, rename, directory fsync.
func writeSnapshotFile(dir string, gen uint64, g *store.Graph, closure reasoner.ClosureState) error {
	data, err := encodeSnapshot(gen, g, closure)
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, snapshotName+".tmp")
	if err := writeFileSync(tmp, data); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapshotName)); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// readSnapshotFile loads dir/snapshot.bin. A missing file returns a nil
// graph and no error (fresh directory); a corrupt file returns an error —
// the snapshot is the recovery root, so silently booting empty would
// discard acknowledged state.
func readSnapshotFile(path string) (uint64, *store.Graph, reasoner.ClosureState, error) {
	var closure reasoner.ClosureState
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil, closure, nil
	}
	if err != nil {
		return 0, nil, closure, err
	}
	if len(data) < len(snapMagic)+4 || string(data[:len(snapMagic)]) != snapMagic {
		return 0, nil, closure, fmt.Errorf("durable: %s is not a snapshot file", path)
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(body, castagnoli) != sum {
		return 0, nil, closure, fmt.Errorf("durable: snapshot %s failed its checksum", path)
	}
	d := &decoder{buf: body[len(snapMagic):]}
	gen := d.uvarint()
	glen := d.uvarint()
	if d.err != nil || glen > uint64(len(d.buf)) {
		return 0, nil, closure, fmt.Errorf("durable: corrupt snapshot header in %s", path)
	}
	g, err := store.ReadSnapshot(bytes.NewReader(d.buf[:glen]))
	if err != nil {
		return 0, nil, closure, err
	}
	closure, rest, err := parseClosure(d.buf[glen:], g)
	if err != nil {
		return 0, nil, closure, err
	}
	if len(rest) != 0 {
		return 0, nil, closure, fmt.Errorf("durable: %d trailing bytes in snapshot %s", len(rest), path)
	}
	return gen, g, closure, nil
}

// syncDir fsyncs a directory so renames and creates within it are durable.
//
//feo:wal-sync
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
