// Package durable makes a feo session crash-safe: a binary snapshot plus a
// write-ahead log (WAL) persist the materialized knowledge graph — and the
// reasoner's carried closure state — across process death, so a restart
// recovers every acknowledged mutation without re-parsing Turtle or
// re-running the OWL RL closure.
//
// # Data directory layout
//
// A data directory holds at most two live files:
//
//	snapshot.bin   the graph + closure state as of generation G
//	wal-G.log      every commit applied since that snapshot
//
// The generation number G ties the pair together. Compaction writes the
// next snapshot (generation G+1) via temp file + fsync + atomic rename +
// directory fsync, creates wal-(G+1).log, and only then deletes the old
// log; a crash anywhere in that sequence leaves either the old pair or the
// new pair recoverable, and Open deletes any WAL whose generation does not
// match the surviving snapshot (its records are already folded in).
//
// # Record framing
//
// The WAL is a stream of frames after an 8-byte magic:
//
//	[uint32 LE payload length][uint32 LE CRC-32C of payload][payload]
//
// Frame 0 is a header naming the generation and the graph version the
// snapshot captured; every later frame is one Record: the flags byte
// (Clear, prefix table present), the ordered add/remove mutation stream of
// one commit (asserted AND inferred triples, exactly as the store applied
// them), the graph version the commit reached, the reasoner's cumulative
// inferred count, the derivation-trace delta the commit produced, and —
// only when the commit changed it — the graph's whole prefix table. Because the stream
// is verbatim, replay applies it with no rule evaluation at all — boot
// cost is O(bytes), and the restored closure state lets the next write
// keep using the incremental materialization path.
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
// whose frames are intact. A failed append additionally poisons the Store
// (further appends error out) so no later record can hide behind a torn
// middle.
package durable
