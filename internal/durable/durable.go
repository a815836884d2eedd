package durable

import (
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
	// Graph is the recovered graph: the snapshot with every intact record
	// of its WAL chain replayed onto it. Nil when the directory holds no
	// snapshot yet (a fresh directory) — the caller must build its initial
	// state and seed the store with Compact before appending.
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

// walFile is the handle the Store writes WAL records and snapshot bytes
// through. It is a seam: the crash-fault-injection tests swap newFile for
// a failpoint implementation that dies mid-write at a chosen byte offset
// or parks on command.
type walFile interface {
	io.Writer
	Sync() error
	Close() error
}

// newFile opens the WAL and snapshot temp files; a package variable so
// tests can inject write/sync faults into either.
var newFile = func(path string, flag int) (walFile, error) {
	return os.OpenFile(path, flag, 0o644)
}

// failpoint runs after each compaction step ("rotated", "synced",
// "renamed", "dir-synced"); a non-nil error abandons the compaction there.
// Tests use it to crash or fail a compaction at each step.
var failpoint = func(step string) error { return nil }

// Store is an open data directory: the WAL append handle plus the
// bookkeeping compaction needs. Append/BeginCompact/Sync/Close are safe
// for concurrent use, but the caller must serialize Append and
// BeginCompact against the graph mutations they record (feo.Session's
// write lock does) and admit one compaction at a time.
type Store struct {
	dir  string
	opts Options

	mu      sync.Mutex
	snapGen uint64 // generation of snapshot.bin; 0 = none yet
	walGen  uint64 // generation of the WAL appends go to
	wal     walFile
	size    int64
	dirty   bool // bytes written since the last fsync
	broken  error
	// brokenGen is the WAL generation a failed append or sync poisoned;
	// installing a snapshot of a later generation covers it.
	brokenGen uint64

	stop     chan struct{}
	syncDone chan struct{}
}

func walName(gen uint64) string { return fmt.Sprintf("wal-%d.log", gen) }

// Open recovers the data directory: load the snapshot, replay its WAL
// chain (truncating a torn tail), delete every WAL outside the chain, and
// return both the recovered state and a Store ready for appends. A
// directory with no snapshot returns Boot.Graph == nil; seed it with
// Compact before the first Append.
func Open(dir string, opts Options) (*Store, *Boot, error) {
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = defaultSyncEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	st := &Store{dir: dir, opts: opts}
	boot := &Boot{}
	// A temp file from an interrupted compaction is never recovered state,
	// nor is the ".pending" side file of the older two-phase compaction.
	os.Remove(filepath.Join(dir, snapshotName+".tmp"))
	os.Remove(filepath.Join(dir, snapshotName+".pending"))

	gen, g, closure, err := readSnapshotFile(filepath.Join(dir, snapshotName))
	if err != nil {
		return nil, nil, err
	}
	st.snapGen = gen
	boot.Generation = gen
	boot.Graph = g
	boot.Closure = closure

	if g != nil {
		if err := st.recoverChain(g, boot); err != nil {
			return nil, nil, err
		}
	}
	// Delete WALs outside the chain: files an interrupted compaction or a
	// broken chain left behind, or orphans in a directory whose snapshot
	// never got written (no acknowledged state can exist without one).
	wals, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	removed := false
	for _, p := range wals {
		var k uint64
		_, err := fmt.Sscanf(filepath.Base(p), "wal-%d.log", &k)
		if g != nil && err == nil && p == filepath.Join(dir, walName(k)) && k >= st.snapGen && k <= st.walGen {
			continue
		}
		if err := os.Remove(p); err != nil {
			return nil, nil, err
		}
		removed = true
	}
	if removed {
		// A later chain must not see a discarded WAL come back.
		if err := syncDir(dir); err != nil {
			return nil, nil, err
		}
	}
	st.startSyncer()
	return st, boot, nil
}

// recoverChain replays the snapshot's WAL chain onto g: wal-G, then
// wal-(G+1), and so on, while each WAL's header names its own generation
// and the version recovered so far as its base. It stops at the first
// defect — a missing or foreign WAL, or a torn frame, which is truncated
// — and opens the chain's last WAL for appends. A chain with no intact
// first WAL is reinitialized empty (prefix-0 recovery: the snapshot alone
// is the recovered state).
func (st *Store) recoverChain(g *store.Graph, boot *Boot) error {
	for k := st.snapGen; ; k++ {
		data, err := os.ReadFile(filepath.Join(st.dir, walName(k)))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
		valid := replayWAL(data, k, g, boot)
		if valid == 0 && k > st.snapGen {
			break
		}
		st.walGen, st.size = k, valid
		if valid < int64(len(data)) || valid == 0 {
			boot.Truncated = boot.Truncated || len(data) > 0
			break
		}
	}
	path := filepath.Join(st.dir, walName(st.walGen))
	if st.size == 0 {
		wal, size, err := createWAL(path, st.walGen, g.Version())
		st.wal, st.size = wal, size
		return err
	}
	if err := os.Truncate(path, st.size); err != nil { // drop a torn tail
		return err
	}
	wal, err := newFile(path, os.O_WRONLY|os.O_APPEND)
	st.wal = wal
	return err
}

// replayWAL applies the intact record prefix of one chain WAL onto g and
// returns the offset just past it, or 0 when the WAL does not continue
// the chain: missing, or a header that does not name generation gen with
// g's current version as its base.
func replayWAL(data []byte, gen uint64, g *store.Graph, boot *Boot) int64 {
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != walMagic {
		return 0
	}
	payload, off, ok := readFrame(data, int64(len(walMagic)))
	if !ok {
		return 0
	}
	d := rdf.NewDecoder(payload)
	hdrGen, base := d.Uvarint(), d.Uvarint()
	if d.Err() != nil || len(d.Rest()) != 0 || hdrGen != gen || base != g.Version() {
		return 0
	}
	for {
		payload, next, ok := readFrame(data, off)
		if !ok {
			return off
		}
		rec, err := parseRecord(payload)
		if err != nil {
			return off
		}
		applyRecord(g, &boot.Closure, rec)
		boot.Records++
		off = next
	}
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
// is interned here) and added to the accumulator in order, so it stays in
// ID space and a later derivation of a conclusion wins.
func applyRecord(g *store.Graph, closure *reasoner.ClosureState, rec Record) {
	if rec.Cleared {
		g.Clear()
		*closure = reasoner.ClosureState{}
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
	intern := func(t rdf.Triple) store.IDTriple {
		return store.IDTriple{S: g.InternTerm(t.S), P: g.InternTerm(t.P), O: g.InternTerm(t.O)}
	}
	var premises []store.IDTriple
	for _, dv := range rec.Derivations {
		premises = premises[:0]
		for _, p := range dv.Premises {
			premises = append(premises, intern(p))
		}
		closure.Add(intern(dv.Conclusion), dv.Rule, premises)
	}
}

// createWAL writes a fresh WAL (magic + header frame naming gen and the
// graph version its first record builds on) and returns the open append
// handle and its size. On error the file is removed.
func createWAL(path string, gen, baseVersion uint64) (walFile, int64, error) {
	hdr := &rdf.Encoder{}
	hdr.Uvarint(gen)
	hdr.Uvarint(baseVersion)
	buf := appendFrame([]byte(walMagic), hdr.Buf)

	f, err := newFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC)
	if err != nil {
		return nil, 0, err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(path)
		return nil, 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return nil, 0, err
	}
	return f, int64(len(buf)), nil
}

// Append frames rec, writes it to the WAL, and applies the sync policy.
// On a write error the Store is poisoned: the log may end in a torn frame,
// so accepting further appends could strand acknowledged records behind an
// unreadable middle; every later Append fails until a snapshot that covers
// the poisoned WAL is installed. The caller must not acknowledge the
// commit when Append errors.
//
//feo:wal-append
func (st *Store) Append(rec Record) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.broken != nil {
		return st.broken
	}
	if st.snapGen == 0 {
		return errors.New("durable: store has no snapshot yet (seed with Compact)")
	}
	frame := appendFrame(nil, appendRecord(nil, rec))
	if _, err := st.wal.Write(frame); err != nil {
		return st.poison("WAL append failed", err)
	}
	st.size += int64(len(frame))
	if st.opts.Sync == SyncAlways {
		if err := st.wal.Sync(); err != nil {
			return st.poison("WAL sync failed", err)
		}
	} else {
		st.dirty = true
	}
	return nil
}

// poison marks the live WAL unusable after a failed write or sync and
// returns the error every later Append reports. st.mu held.
func (st *Store) poison(what string, err error) error {
	st.broken = fmt.Errorf("durable: %s (store poisoned until compaction): %w", what, err)
	st.brokenGen = st.walGen
	return st.broken
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
	return st.snapGen
}

// Compaction is a compaction between its pin (BeginCompact) and its
// snapshot write (Finish).
type Compaction struct {
	st      *Store
	gen     uint64
	g       *store.Graph
	closure reasoner.ClosureState
}

// Compact durably writes (g, closure) as the next-generation snapshot:
// BeginCompact and Finish back to back. For callers whose state is
// already quiescent and includes every record appended so far — seeding
// a fresh directory, tests. It also repairs a poisoned Store.
func (st *Store) Compact(g *store.Graph, closure reasoner.ClosureState) error {
	c, err := st.BeginCompact(g, closure)
	if err != nil {
		return err
	}
	return c.Finish()
}

// BeginCompact is a compaction's pin, cheap enough for the caller's writer
// lock: fsync the live WAL N, create wal-(N+1).log based on g's version,
// and switch appends to it. (g, closure) must include every record
// appended so far and must not change afterwards (a frozen snapshot
// view). The caller admits one compaction at a time.
func (st *Store) BeginCompact(g *store.Graph, closure reasoner.ClosureState) (*Compaction, error) {
	gen, err := st.rotate(g.Version())
	if err != nil {
		return nil, err
	}
	if err := failpoint("rotated"); err != nil {
		return nil, err
	}
	return &Compaction{st: st, gen: gen, g: g, closure: closure}, nil
}

// rotate switches appends to a fresh WAL of the next generation whose
// header names baseVersion, and returns that generation.
func (st *Store) rotate(baseVersion uint64) (uint64, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.broken == errClosed {
		return 0, errClosed
	}
	// The old WAL's records must be durable before appends move on (the
	// syncer only syncs the live WAL). A poisoned WAL is skipped: the
	// snapshot will cover it.
	if st.broken == nil {
		if err := st.syncLocked(); err != nil {
			return 0, err
		}
	}
	gen := st.walGen + 1
	path := filepath.Join(st.dir, walName(gen))
	wal, size, err := createWAL(path, gen, baseVersion)
	if err != nil {
		return 0, err
	}
	if err := syncDir(st.dir); err != nil {
		wal.Close()
		os.Remove(path)
		return 0, err
	}
	if st.wal != nil {
		st.wal.Close()
	}
	st.walGen, st.wal, st.size, st.dirty = gen, wal, size, false
	return gen, nil
}

// Finish writes the pinned state as snapshot N+1 with no lock held (see
// the package documentation), while appends flow into wal-(N+1). A failure
// at any step leaves the WAL chain recoverable from the old snapshot.
func (c *Compaction) Finish() error {
	st := c.st
	tmp := filepath.Join(st.dir, snapshotName+".tmp")
	if err := writeSnapshot(tmp, c.gen, c.g, c.closure); err != nil {
		return err
	}
	if err := failpoint("synced"); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(st.dir, snapshotName)); err != nil {
		return err // Open deletes the temp file
	}
	if err := failpoint("renamed"); err != nil {
		return err
	}
	// Until the rename is durable, a crash may boot either snapshot; the
	// old WALs stay until then so both recover.
	if err := syncDir(st.dir); err != nil {
		return err
	}
	if err := failpoint("dir-synced"); err != nil {
		return err
	}
	st.mu.Lock()
	old := st.snapGen
	st.snapGen = c.gen
	if st.broken != nil && st.broken != errClosed && st.brokenGen < c.gen {
		st.broken = nil
	}
	st.mu.Unlock()
	for k := old; k < c.gen; k++ {
		os.Remove(filepath.Join(st.dir, walName(k))) // best-effort; Open deletes WALs outside the chain
	}
	return nil
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
		return st.poison("WAL sync failed", err)
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

// writeSnapshot writes generation gen of (g, closure) to path in the
// snapshot file format — magic, generation, graph section length, graph
// section, closure section, and a trailing CRC-32C over everything before
// it — and fsyncs it. The sections are written as encoded, never
// concatenated in memory. On error the file is removed.
//
//feo:wal-sync
func writeSnapshot(path string, gen uint64, g *store.Graph, closure reasoner.ClosureState) error {
	graph := g.AppendSnapshot(nil)
	hdr := &rdf.Encoder{Buf: []byte(snapMagic)}
	hdr.Uvarint(gen)
	hdr.Uvarint(uint64(len(graph)))
	tail := appendClosure(nil, closure)
	sum := crc32.Checksum(hdr.Buf, castagnoli)
	sum = crc32.Update(sum, castagnoli, graph)
	tail = binary.LittleEndian.AppendUint32(tail, crc32.Update(sum, castagnoli, tail))

	f, err := newFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC)
	if err != nil {
		return err
	}
	for _, b := range [][]byte{hdr.Buf, graph, tail} {
		if _, err = f.Write(b); err != nil {
			break
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
	}
	return err
}

// readSnapshotFile loads dir/snapshot.bin. A missing file returns a nil
// graph and no error (fresh directory); a corrupt file returns an error —
// the snapshot is the recovery root, so silently booting empty would
// discard acknowledged state. After the file's checksum and header, its
// two sections decode concurrently (decodeSections).
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
	d := rdf.NewDecoder(body[len(snapMagic):])
	gen := d.Uvarint()
	glen := d.Uvarint()
	sections := d.Rest()
	if d.Err() != nil || glen > uint64(len(sections)) {
		return 0, nil, closure, fmt.Errorf("durable: corrupt snapshot header in %s", path)
	}
	g, closure, rest, err := decodeSections(sections[:glen], sections[glen:])
	if err != nil {
		return 0, nil, closure, err
	}
	if len(rest) != 0 {
		return 0, nil, closure, fmt.Errorf("durable: %d trailing bytes in snapshot %s", len(rest), path)
	}
	return gen, g, closure, nil
}

// decodeSections decodes a snapshot file's graph section in its own
// goroutine while the calling goroutine decodes the closure section, and
// returns the bytes after the closure. The closure's term refs are bounded
// by the dictionary count in the graph section's header (store's layout:
// format version, graph version, term count); a section valid against
// that header decodes to the same state as against the decoded graph,
// whose dictionary holds exactly that many terms. An inline ref waits for
// the graph. The graph section's error wins over the closure's, and the
// goroutine is joined before decodeSections returns.
func decodeSections(graph, closure []byte) (*store.Graph, reasoner.ClosureState, []byte, error) {
	var g *store.Graph
	var gerr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		g, gerr = store.ReadSnapshot(graph)
	}()
	wait := func() (*store.Graph, error) {
		<-done
		return g, gerr
	}
	hdr := rdf.NewDecoder(graph)
	hdr.Uvarint() // format version
	hdr.Uvarint() // graph version
	st, rest, err := decodeClosure(closure, hdr.Uvarint(), wait)
	if _, gerr := wait(); gerr != nil {
		return nil, reasoner.ClosureState{}, nil, gerr
	}
	if err != nil {
		return nil, reasoner.ClosureState{}, nil, err
	}
	return g, st, rest, nil
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
