// Package repro is the root of the FEO reproduction module. The library
// lives in the feo package (public API) and internal/* (substrates); this
// root package carries the repository-level benchmark suite that
// regenerates and times every artifact of the paper's evaluation — see
// bench_test.go, DESIGN.md, and EXPERIMENTS.md.
//
// # Dictionary-encoded engine over roaring bitmap indexes
//
// The storage and query substrate is dictionary-encoded: internal/store
// interns every distinct RDF term into a dense uint32 ID (store.TermDict)
// and keeps two permutation indexes, SPO and POS, as two nested levels
// (a bound object with a free predicate is answered from them; see the
// internal/store package doc) whose innermost level is a roaring-style bitmap set (store.IDSet,
// internal/store/bitset.go) — 16-bit-keyed containers, sorted-array when
// sparse and 1024-word bitmap when dense. Terms are encoded once, on
// write; reads decode lazily, only for the positions a caller receives,
// and ID-level set iteration is in ascending ID order. The two hot
// consumers exploit this end to end: the OWL RL reasoner
// (internal/reasoner) joins rule premises on IDs with bitmap membership
// probes, and the SPARQL evaluator (internal/sparql) runs basic graph
// patterns as an ID-space pipeline after reordering them by estimated
// selectivity — fusing runs of patterns that constrain the same fresh
// variable into word-level bitmap intersections (Graph.MatchSetID +
// IDSet.And), and running property-path BFS with bitmap visited/frontier
// sets. Graph.Version counts mutations, so memoized per-version state
// (path reachability, the SPARQL plan cache) can assert graph stability.
//
// # MVCC snapshot reads
//
// The store is multi-versioned: a single writer mutates the live graph
// and, at commit points, publishes an immutable store.Snapshot via one
// atomic pointer swap (internal/store/mvcc.go). Readers pin the latest
// snapshot with one atomic load and read its frozen view indefinitely —
// no lock, no coordination, never blocking the writer and never blocked
// by it. Publishing bumps a copy-on-write epoch: index structures the
// snapshot shares with the live graph are copied the first time the
// writer touches them again (outer index levels by slice memcpy, bitmap
// sets container-by-container), so an untouched region costs nothing and
// a pinned snapshot always observes exactly its publish-time state. The
// Graph.Begin/Txn.Commit transaction surface wraps the protocol for
// layered writers and doubles as the write-ahead-log capture point;
// Txn.CommitDeferred retains a commit privately so a burst of writes
// shares one copy-on-write freeze instead of paying one per commit.
//
// feo.Session serves on top of this: every read method pins a snapshot
// (feo.Snapshot is the explicit multi-call handle), writers serialize on
// an internal mutex and commit with the publish deferred — the next pin
// publishes the accumulated state, without waiting, falling back to the
// latest published version if a writer holds the lock just then — and the
// serve-time writer stall points — WAL fsync, log compaction — happen
// with no reader-visible lock held at all.
//
// # Concurrency
//
// Parallelism is across requests, not within one: each sparql.Execute
// runs on its caller's goroutine over a pinned snapshot, and any number of
// them may run at once under the store's reader contract (a quiescent
// Graph is safe for any number of concurrent readers). There is no
// per-query worker pool and nothing to tune.
//
// # Crash-safe durability
//
// internal/durable persists the whole engine state: a binary snapshot of
// the TermDict, the three roaring permutation indexes, namespaces, and
// the reasoner's carried closure (dictionary-coded against the snapshot's
// own term table), plus a CRC-32C-framed write-ahead log that records
// every committed mutation batch — the ordered asserted+inferred op
// stream, the derivation delta, and the end-of-commit version — before
// the public API acknowledges it. Boot is O(file size): read the
// snapshot, replay the WAL verbatim (no rule evaluation), restore the
// closure once, and resume incremental materialization. A torn or
// corrupt WAL tail truncates at the first bad frame, so recovery is
// always a prefix of the acknowledged commits; the crash-recovery CI job
// enforces exactly that with randomized apply/crash/reopen loops,
// exhaustive truncation offsets, bit flips, and mid-write failpoint
// kills (feo/crash_test.go, internal/durable/durable_test.go). Turn it
// on with feo.Options{DataDir: ...} or `feo -datadir` (sync policy
// selectable: always/interval/never); `feo compact` rewrites the
// snapshot and starts a fresh log, and `feo serve` drains in-flight
// requests and flushes the WAL on SIGINT/SIGTERM. The gated
// SnapshotLoad/TurtleBoot benchmark pair keeps snapshot boot measurably
// faster than re-parsing Turtle and re-running the reasoner. Commits
// append to the log before the new version is published, so a pinned
// reader can never observe state that is not durably logged. Every
// compaction — forced or size-triggered — rotates the log under the
// writer lock and then serializes its snapshot from the pinned immutable
// view with the lock released: the fsync-heavy step blocks neither
// readers nor other writers, and recovery replays the chain of logs
// written since the last installed snapshot.
//
// # The serve tier
//
// `feo serve` exposes the engine over HTTP. /sparql speaks the SPARQL
// 1.1 Protocol — GET ?query=, urlencoded POST, and raw
// application/sparql-query POST — with the result format negotiated
// (?format= or Accept with q-values) before the query runs, and answers
// in the W3C JSON, XML, CSV, or TSV result formats. Serialization
// streams: sparql.ExecuteStream pushes each projected row from the join
// into a constant-memory ResultWriter (internal/sparql/stream.go), so a
// query without an ORDER BY/DISTINCT/GROUP BY barrier sends its first
// row while the join still runs, LIMIT stops the join, result size never
// shows up as server memory, and every query runs under the
// server's deadline and row/byte caps — a runaway query is canceled
// cooperatively, a capped one ends as a well-formed truncated document
// with the reason in the X-Feo-Truncated trailer. Handler semantics are
// strict: 405 with Allow, 415 for unknown POST bodies, 413 for a body
// over 1 MiB, 406 for an unsatisfiable Accept. /metrics publishes a hand-rolled Prometheus text
// exposition (internal/metrics, stdlib-only, byte-deterministic):
// per-endpoint latency histograms and response counters, plan-cache
// hits/misses, snapshot age, graph size, and reasoner inference gauges.
// feobench (bench/, BENCHMARK.json) closes the loop: it boots `feo serve`
// as a separate process and drives four seeded workloads against it.
//
// # Static invariants
//
// The MVCC, durability, and determinism contracts above are not just
// documentation: cmd/feovet is a custom vet tool (a stdlib-only
// go/analysis-style framework, internal/analysis) that proves them at
// build time from //feo: annotations on the code itself. frozenmut
// verifies that no mutator is statically reachable from a published
// snapshot view and that every exported method of a mutable type
// declares itself //feo:mutates or //feo:frozen-safe (fail closed);
// walorder verifies that the WAL append precedes snapshot publication
// on every commit path, that nothing publishes on a failed append's
// error branch, and that durability errors are consumed; mapdeterminism
// verifies that paper-artifact emitters never iterate Go maps in output
// order without a sort or an explicit //feo:unordered justification;
// idspacedecode verifies that ID-space query hot paths never decode
// terms. CI builds feovet and runs `go vet -vettool=feovet ./...` next
// to gofmt, plain go vet, staticcheck, and govulncheck; the
// internal/analysis analysistest suites prove each pass fails when its
// contract is broken (an annotation deleted, a frozen-view mutation
// injected, a commit reordered, a sort removed).
//
// # Benchmark trajectory and its CI gate
//
// scripts/bench.sh records the benchmark suite (all packages) across PRs
// (BENCH_*.json), and scripts/bench_compare.sh enforces it: the CI
// bench-compare job re-runs the suite and fails the build when a paper
// listing, Table I, figure, reasoner, or store bitset/dense-pattern
// benchmark regresses more than 15% against the latest committed
// trajectory point.
package repro
