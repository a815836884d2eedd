// Package analysis is feovet's core: a small, stdlib-only static-analysis
// framework plus the project-specific passes that prove this repository's
// MVCC, durability, and determinism contracts at build time.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic, cross-package facts) but is implemented on
// go/parser + go/types alone, because the build environment pins the
// dependency set. cmd/feovet speaks the `go vet -vettool` unitchecker
// protocol (-V=full / -flags / pkg.cfg), typechecks each package against
// the compiler's export data, and exchanges per-function facts between
// packages through the vetx files the go command already plumbs. The same
// passes also run in-process over whole programs (Standalone) and over
// test fixtures (analysistest).
//
// # Static invariants and the annotation vocabulary
//
// The contracts from PRs 5–7 exist as doc comments and race harnesses;
// feovet turns them into machine-checked annotations. The vocabulary, all
// written as directive comments in a declaration's doc block:
//
//	//feo:mutable-type   on a type: its state is writer-owned; exported
//	                     methods must declare themselves (fail closed).
//	//feo:frozen-type    on a type: values are immutable published views
//	                     (store.Snapshot, feo.Snapshot). Every method is
//	                     checked as a frozen context.
//	//feo:mutates        on a func: mutates shared store state. Must not
//	                     be reachable from any frozen context.
//	//feo:frozen-safe    on a func: a read path, safe on frozen views;
//	                     checked exactly like a frozen-type method.
//	//feo:fresh          on a func: returns a newly allocated value the
//	                     caller owns; mutating such a value is private.
//	//feo:publish        on a func: a snapshot publication point
//	                     (Publish, Txn.Commit, Txn.CommitDeferred).
//	//feo:wal-append     on a func: the durable acknowledgment append;
//	                     must be sequenced before any publication and its
//	                     error must be consumed.
//	//feo:wal-sync       on a func: a durability fsync; its error must be
//	                     consumed.
//	//feo:emit           on a func: an artifact/result emitter root whose
//	                     output must be byte-deterministic.
//	//feo:unordered      on a func or a single statement: this map
//	                     iteration order deliberately cannot affect
//	                     emitted artifacts (order-independent
//	                     accumulation, or the caller sorts).
//	//feo:idspace        on a func: an ID-space hot path (PR 4); it must
//	                     not decode terms.
//	//feo:decodes        on a func: materializes rdf.Term values from IDs
//	                     (TermDict.Term and wrappers).
//
// # Analyzers and the contracts they pin
//
//   - frozenmut — the PR 7 MVCC contract: a published store.Snapshot /
//     feo.Snapshot view is immutable forever. No //feo:mutates function
//     may be statically reachable from a frozen-type method or a
//     //feo:frozen-safe function (mutations of function-local fresh
//     values excepted), frozen contexts must not write through their
//     receiver, parameters, or globals of mutable type, a function that
//     writes through a //feo:mutable-type receiver or pointer parameter
//     must carry //feo:mutates, and un-annotated exported methods of
//     mutable types fail closed.
//   - walorder — the PR 6/7 durability contract: inside a commit path the
//     //feo:wal-append call precedes every //feo:publish call, no publish
//     happens on the append's error branch, and append/sync errors are
//     never discarded (an acknowledged commit is a logged commit).
//   - mapdeterminism — the paper-artifact determinism contract: functions
//     reachable from //feo:emit roots must not iterate Go maps in emitted
//     order. A map range is justified only by a subsequent sort in the
//     same function or an explicit //feo:unordered.
//   - idspacedecode — the PR 4 lazy-decode contract: //feo:idspace
//     functions never reach //feo:decodes (TermDict.Term and friends),
//     directly or transitively.
//   - annots — hygiene: unknown //feo: directives are errors, so a typo
//     cannot silently disable a contract.
//   - atomiclite — a stdlib port of vet's atomic self-assignment check,
//     kept in the bundle alongside the standard passes `go vet` itself
//     runs in CI (copylocks, loopclosure, atomic, ...). The SSA-based
//     standard passes (nilness, unusedwrite) need golang.org/x/tools,
//     which this build environment does not vendor; CI covers that ground
//     with staticcheck instead.
//
// The checks are static over the single-target call graph: calls through
// function values and interfaces are not traversed, and ownership of
// fresh locals is a flow-insensitive approximation with two deliberate
// rules. A bare-identifier assignment (`s = t`, `s, t = t, s`) rebinds a
// local and is never a mutation — unless the identifier is a package-
// scope variable, which frozen contexts still may not reassign. And a
// function literal's own parameters are treated as owned inside the
// literal: whoever invokes the closure chose what to pass, so writing
// through such a parameter is the call site's responsibility (this is
// what lets callback closures fill caller-allocated fresh accumulators).
// Within those documented bounds every violation of an annotated contract
// is reported, and the analysistest suites prove the passes fail when an
// annotation is deleted or a frozen-view mutation is injected.
package analysis
