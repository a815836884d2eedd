// Package sparql implements the subset of SPARQL 1.1 that the FEO paper's
// competency-question queries (Listings 1-3) and the extension explanation
// types require: SELECT/ASK/CONSTRUCT/DESCRIBE forms, basic graph patterns,
// FILTER with the standard operator and builtin-function library,
// FILTER (NOT) EXISTS, OPTIONAL, UNION, MINUS, BIND, VALUES, property paths
// (sequence, alternative, inverse, +, *, ?), DISTINCT/REDUCED, GROUP BY with
// aggregates, HAVING, ORDER BY, and LIMIT/OFFSET.
//
// The engine evaluates against a store.Graph; run the reasoner first to
// query the inferred closure, exactly as the paper exports inferred axioms
// from Pellet before querying.
//
// # ID-space solution representation
//
// Internally the evaluator never works on the public map-based Solution.
// Before execution, every variable the query can mention — pattern
// positions, BIND/VALUES targets, SELECT aliases, subquery and EXISTS-body
// variables, the planner's internal aggregate and group keys — is assigned
// a dense slot (idspace.go), and an intermediate solution is an idRow: a
// fixed-width []store.ID with store.NoID marking unbound slots. Every
// operator — BGP joins, UNION, OPTIONAL/MINUS probes, EXISTS, FILTER,
// property paths, BIND, VALUES, subqueries, GROUP BY/aggregation,
// ORDER BY, DISTINCT — consumes and produces idRows; joining is integer
// comparison and extending a binding is a small memcopy. Terms are
// decoded once per projected result row, by the sink at the end of the
// pipeline: Execute's map[string]rdf.Term Solutions, ExecuteStream's
// reused term slice (ExecuteUpdate's template instantiation likewise
// consumes ID rows directly).
//
// Terms that exist only inside a query — expression results, VALUES
// constants the graph never interned — get query-local "extension" IDs
// growing downward from just below store.NoID. They can never collide
// with graph IDs, graph index probes against them simply miss, and ID
// equality remains exact RDF term identity across both ranges.
//
// # The lazy-decode rule
//
// A term is decoded from its ID only when something needs its lexical
// form: a FILTER expression reading a slot, ORDER BY comparisons, update
// templates, and final result serialization. CONSTRUCT/DESCRIBE decode
// nothing before the Turtle writer, which decodes each distinct term of
// the result once. Operators that only move bindings around (joins,
// UNION, MINUS, projection, DISTINCT — which dedups on slot IDs) decode
// nothing; BOUND and an EXISTS body without filters touch no term at
// all. Property paths decode nothing: they walk the indexes from the
// endpoint ID to the reached IDs, memoized per (path, endpoint ID,
// direction), and their functions carry //feo:idspace so feovet's
// idspacedecode pass proves it.
//
// # Parse and plan caches
//
// Run, RunStream and RunGraphStream cache parses by query shape, not by
// text. One scan of the text (the lexer is a position cursor shared with
// the parser, and reads white space, comments, IRIs, strings, numbers,
// language tags and names through the term scanners of internal/rdf, the
// ones the Turtle parser uses) writes its fingerprint: the token stream
// with every lifted constant replaced by a placeholder of its token kind,
// while the constants themselves go into a parameter vector. Lifted are IRIREFs,
// string literals (folded with their language tag or datatype) and
// numeric and boolean literals. In a triple-pattern position of a plain
// (path-free) pattern, and as expression constants, they become parameter
// references in the cached template, read from the execution's vector.
// Everything else stays in the key: prefixed names, the IRIs of PREFIX
// and BASE, the numbers of LIMIT and OFFSET, and — as "pinned" parameters
// whose values extend the key — constants in VALUES, property-path
// endpoints and path IRIs, CONSTRUCT templates, DESCRIBE, signed numbers
// and GROUP_CONCAT separators. A hit costs the scan alone: no parse tree,
// no namespace map, no slot-table build. The cache holds at most 512
// entries and is emptied on overflow; ShapeCacheStats counts hits and
// misses.
//
// Compiling a basic graph pattern — estimating selectivities, picking the
// greedy join order, encoding constant IDs, segmenting the ordered
// patterns into fused bitmap-intersection runs — depends on the pattern
// list, its constants, the graph version, and which slots are certainly
// bound at entry, a static set (see Streaming results), so each BGP is
// planned once per execution. planBGP memoizes compiled plans in the store.Memo of
// the graph value the query runs against. A BGP whose constants are all
// in the tree is keyed by (BGP identity, bound-slot set). A template's
// BGP is estimated per execution — one LookupID per constant, one CountID
// per pattern — and keyed by (BGP identity, bound-slot set, join order),
// so every execution runs the order its own constants call for; a hit is
// rebound to the execution's constant IDs, and an absent constant makes
// only that execution's BGP empty. A plan lives exactly as long as its
// graph version: a pinned snapshot view keeps its plans hot while pinned,
// and the garbage collector reclaims view and plans together once the
// last pin is dropped, so a commit-per-request workload never accumulates
// superseded versions; a live graph drops its plans at the first lookup
// after a mutation. Each memo holds at most 4096 plans and is emptied on
// overflow. PlanCacheStats exposes process-wide hit/miss counters and
// ResetPlanCache gives benchmarks a cold start (it bumps the generation
// every memo is tagged with). DisableJoinReorder bypasses the plan cache
// (knob-shaped plans are never stored).
//
// # Streaming results
//
// SELECT and ASK run one push pipeline; Execute drains it into Solution
// maps, ExecuteStream/RunStream into a ResultWriter. Each group compiles,
// once per execution, into a chain of links (chainGroup), each taking one
// row and handing the rows it yields to the next. A BGP's link is its
// plan's steps, each extending a row into its own scratch row. OPTIONAL,
// UNION, BIND, VALUES, nested groups and FILTER are links too: OPTIONAL
// pushes the row through its body's chain and passes it on unextended
// when the body yields nothing, and UNION pushes it through both
// branches. MINUS and a subquery materialize their right side once, at
// the first row that reaches them. ASK and EXISTS stop at the first
// solution; an EXISTS body compiles at its first probe and serves every
// row after.
//
// Plans and filter placement come from a static bound-slot set, derived
// top-down through each group (groupStages): the variables of a BGP,
// what a nested group guarantees, what both branches of a UNION
// guarantee, the variable of a BIND of a constant and each VALUES column
// without UNDEF are bound in every row after them; OPTIONAL, MINUS, a
// subquery and any other BIND guarantee nothing. A filter runs between
// the links where every variable it mentions is bound or can never be
// bound by its group. Nothing is re-planned per row.
//
// A SELECT with no ORDER BY, GROUP BY or aggregate barrier projects,
// dedups (DISTINCT) and applies OFFSET and LIMIT per row in the sink, so
// its first row reaches the writer while the join runs and LIMIT or
// MaxRows stop the join. Barrier queries collect compact ID rows (a
// pushed row's only copy), group and sort them, then replay the same
// sink; an update collects its WHERE clause's rows before it mutates.
//
// Begin is deferred to the first row; Row gets terms[i] for the i-th Begin
// variable (zero Term: unbound) in a slice valid only during the call, and
// each writer holds one buffer (streamBufSize) of output, so a million-row
// SELECT streams in constant serialization memory. WriteJSON/WriteCSV/
// WriteTSV/WriteXML on Result adapt the same writers (formats.go).
//
// Each writer takes its output buffer from a sync.Pool with its first
// write and returns it once End or Boolean has flushed, so a stream of responses allocates no
// output buffers. The CSV, TSV and XML writers append terms straight into
// that buffer — TSV in N-Triples syntax (rdf.Term.Append), CSV quoted
// exactly as encoding/csv quotes with UseCRLF, XML with entity escapes —
// so a row costs no per-term garbage.
//
// Limits. StreamOptions bounds a query three ways: MaxRows and MaxBytes
// truncate the emission, and Deadline cancels evaluation cooperatively —
// an atomic flag polled per row by the join and path steps, per level by
// the path BFS, and by the sink, never a panic. A deadline that fires before the
// first row returns ErrDeadlineExceeded with nothing written, so callers
// can still send a clean error; any limit that trips after it instead
// ends the document well-formed with a Truncation (JSON's "truncated"
// member, an XML comment, or the caller's out-of-band channel for
// CSV/TSV).
//
// Every writer's emission path is marked //feo:emit: output bytes must be
// a pure function of the result sequence, so no writer may range over a
// map or consult clocks, randomness, or pointer identity. feovet's
// mapdeterminism pass enforces the map half of that obligation at compile
// time.
//
// # Graph results
//
// CONSTRUCT and DESCRIBE run their WHERE clause through the same
// evalSelect pipeline, so LIMIT, OFFSET and ORDER BY choose the solutions
// (SPARQL 1.1 §16.2). A CONSTRUCT template is resolved once per query —
// a constant to its ID (encodeTerm), a variable to its slot, a template
// blank node to a fresh per-solution extension ID — and each pushed row
// instantiates it into ID triples; no row is collected and no graph is
// built. DESCRIBE walks the described resources' triples with ForEachID
// into the same triple list. ExecuteGraphStream/RunGraphStream hand that
// list to turtle.WriteIDs, which decodes, ranks and formats each distinct
// term once and writes the sorted, deduplicated document; Execute builds
// Result.Graph from it instead, and turtle.Write of that graph emits the
// same bytes. ExecuteStream answers a graph form with ErrGraphResult
// before evaluating, which is how a caller holding only the query text
// routes it.
//
// Graph results keep the Limits contract: the Turtle writer starts after
// evaluation, so a deadline during evaluation is ErrDeadlineExceeded;
// MaxRows counts triples, MaxBytes and the deadline are checked between
// subject blocks, and a truncated document ends with a
// "# truncated: <reason>" comment line.
//
// # Concurrency and row order
//
// Execute runs every operator on its caller's goroutine: one
// implementation per operator, no worker pool. Parallelism comes from
// many Execute calls over pinned snapshots, so the per-query state (the
// evalContext memos, the extension dictionary, scratch rows) is
// unsynchronised and only the package-level caches shared across requests
// lock.
//
// Rows leave a chain depth first: an input row, then each plan step's
// matches in index order, then the next input row. An OPTIONAL body's
// extensions of a row follow it directly, and a UNION after other
// patterns interleaves per input row — the left branch's rows for it,
// then the right's — rather than emitting every left row before any
// right one. Every store walk (store.ForEachID) is in ascending ID order
// at every index level, and groups leave in first-seen order, so one
// query over one graph version returns its rows in one order: repeats,
// concurrent executions and a restart from a snapshot (which keeps the
// IDs) produce the same bytes. Two freedoms remain. ID order is
// first-interning order, not term order, so two graphs holding the same
// triples interned in another order can order the rows differently. And
// the planner picks join orders from the graph's counts, so a later
// version can enumerate the same matches in another order. Only ORDER BY
// fixes an order across those; the contract is still the solution
// multiset, the variable list, and every rendered artifact.
//
// # Correctness harness
//
// The ID pipeline, the planner, and the caches are locked in by a
// randomized reference-equivalence harness (reference_test.go,
// equivalence_test.go): a deliberately naive term-level evaluator —
// nested-loop joins in written order, no reordering, no fusion, no
// caching — must produce the same solution multiset as the production
// engine on generated graphs and queries, with cold and warm plans,
// across interleaved mutations; shape_test.go holds cached templates to
// fresh parses and to the same evaluator. FuzzParseQuery additionally
// holds the parser and the renderer ((*Query).String) to a round-trip
// fixed point, and a template filed by other constants to the input's
// own render.
package sparql
