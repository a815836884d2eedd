// Package durable makes a feo session crash-safe: a binary snapshot plus a
// write-ahead log (WAL) persist the materialized knowledge graph — and the
// reasoner's carried closure state — across process death, so a restart
// recovers every acknowledged mutation without re-parsing Turtle or
// re-running the OWL RL closure.
//
// # Data directory layout
//
// A data directory holds a snapshot plus a WAL chain:
//
//	snapshot.bin   the graph + closure state as of generation G
//	wal-G.log …    the commits since, one more WAL per compaction begun
//	               and not yet installed
//
// Each WAL's header names its generation and its base version, the graph
// version its first record builds on. Recovery replays wal-G, wal-(G+1),
// … while each header names its own generation and a base version equal
// to the version recovered so far, stops at the first defect (a missing
// or foreign WAL, a torn frame), and deletes every WAL outside the chain.
//
// A compaction rotates at the pin and writes off the lock. BeginCompact,
// under the caller's writer lock, fsyncs WAL N, creates wal-(N+1).log
// based on the pinned version and switches appends to it (failpoint
// "rotated"). Finish, with no lock held, writes snapshot N+1 to
// snapshot.bin.tmp and fsyncs it ("synced"), renames it over snapshot.bin
// ("renamed"), fsyncs the directory ("dir-synced") and deletes the WALs
// older than N+1. Commits acknowledged meanwhile are in wal-(N+1), which
// both snapshots' chains reach, so a crash anywhere recovers them; a
// failed write leaves a longer chain for the next compaction to fold.
//
// # Record framing
//
// The WAL is a stream of frames after an 8-byte magic:
//
//	[uint32 LE payload length][uint32 LE CRC-32C of payload][payload]
//
// Frame 0 is a header naming the generation and the base version; every
// later frame is one Record: the flags byte
// (Clear, prefix table present), the ordered add/remove mutation stream of
// one commit (asserted AND inferred triples, exactly as the store applied
// them), the graph version the commit reached, the reasoner's cumulative
// inferred count, the derivation-trace delta the commit produced, and —
// only when the commit changed it — the graph's whole prefix table. Because the stream
// is verbatim, replay applies it with no rule evaluation at all — boot
// cost is O(bytes) — and the restored closure state lets the next write
// keep using the incremental materialization path. Boot decodes the
// snapshot file's two sections concurrently: the graph section in a
// goroutine of its own, the closure section in the caller, in one pass
// whose term refs are bounded by the term count in the graph section's
// header. An inline term (a ref of 0, which older encoders wrote) waits
// for the graph, into whose dictionary it is interned; when both sections
// are corrupt, the graph section's error is the one returned. The closure
// section decodes straight into the reasoner's trace form
// (reasoner.ClosureState): fixed-size entries in ascending conclusion
// order, one premise arena of the decoded size, rule names interned to
// indexes. Replay adds each record's derivations in log order; one whose
// conclusion sorts before the last entry goes to ClosureState.Later, so
// a later derivation of a conclusion still wins, and a Clear record drops
// the trace so far. RestoreClosure adopts the entries and the arena as
// the reasoner's sorted run, copying no premise and hashing only Later.
//
// Payloads (appendRecord), the WAL header, the snapshot file's header and
// its closure section (appendClosure) spell uvarints, strings, terms,
// triples and prefix tables in the byte encoding of package rdf; its
// package comment is the one statement of it.
//
// # Acknowledgement and fsync policy
//
// A commit is acknowledged when the session's mutating call (Explain,
// Update, LoadTurtle, LoadRDFXML) returns success: the record was framed
// and handed to the operating system inside the session's write lock,
// before the lock was released. How hard that guarantee is depends on the
// sync policy:
//
//	SyncAlways    fsync after every record; an acknowledged commit
//	              survives OS/power failure, not just process death.
//	SyncInterval  a background fsync every SyncEvery; process death loses
//	              nothing (the OS has the bytes), power failure loses at
//	              most the unsynced tail.
//	SyncNever     leave flushing entirely to the OS.
//
// Under every policy, recovery is prefix-exact at record granularity (see
// below): a commit is either fully recovered or fully absent, never
// half-applied.
//
// # Torn-tail truncation rule
//
// Replay reads frames until the first defect — a length that runs past the
// file, a CRC mismatch, a payload that does not parse — and truncates the
// file at the last good frame boundary. Everything before the defect is
// applied; everything at and after it is discarded. This is the standard
// WAL bargain: a torn tail is indistinguishable from a crash mid-write of
// the first bad record, so the log recovers the longest prefix of commits
// whose frames are intact. In a chain, a torn WAL ends the chain: every
// later WAL is discarded with the torn tail. A failed append additionally
// poisons the Store (further appends error out) so no later record can
// hide behind a torn middle; the Store stays poisoned until a snapshot
// that covers the poisoned WAL is installed.
package durable
