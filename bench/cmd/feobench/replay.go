package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/bench/trace"
	"repro/bench/workload"
	"repro/feo"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/foodkg"
	"repro/internal/healthcoach"
	"repro/internal/ontology"
	"repro/internal/rdf"
	"repro/internal/reasoner"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/turtle"
)

// The traced replay runs a prefix of the workload's measured ops in this
// process, against the packages directly, with a span around every call
// into a layer. The server is never traced; the end-to-end numbers come
// from the untraced server run, and this pass says where in-process time
// goes per layer. It needs the layers apart, so it wires its own stack
// the way feo.Open and Session.commitWrite do (stack, below); the
// feo.Session-level numbers come from a real durable session beside it.

// replayBudget bounds the wall time of the op replay on each stack.
const replayBudget = 2500 * time.Millisecond

// stack is the serve tier's object graph with the layers still separate.
type stack struct {
	kg     *foodkg.KG
	g      *store.Graph
	r      *reasoner.Reasoner
	engine *core.Engine
	wal    *durable.Store
	dir    string
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// buildStack mirrors feo.Open for a fresh durable directory, one span per
// layer call.
func buildStack(tr *trace.Tracer, lv map[string]float64, cfg foodkg.Config, dir string) (*stack, error) {
	root := tr.Start("replay.build", -1, -1)
	defer tr.End(root)
	timed := func(name string, fn func()) float64 {
		id := tr.Start(name, root, -1)
		fn()
		tr.End(id)
		sp := tr.Spans()[id]
		return (sp.End - sp.Start).Seconds()
	}
	s := &stack{dir: dir}
	lv["foodkg.generate_s"] = timed("foodkg.Generate", func() { s.kg = foodkg.Generate(cfg) })
	s.g = ontology.TBox()
	added := 0
	mergeS := timed("store.Graph.Merge", func() { added = s.g.Merge(s.kg.Graph) })
	lv["store.add_ns_per_triple"] = mergeS * 1e9 / float64(added)
	s.r = reasoner.New(reasoner.Options{TraceDerivations: true})
	m0 := mallocs()
	lv["reasoner.materialize_s"] = timed("reasoner.Reasoner.Materialize", func() { s.r.Materialize(s.g) })
	lv["reasoner.materialize_allocs"] = float64(mallocs() - m0)
	var err error
	// SyncNever, so Append and Sync are timed apart.
	if s.wal, _, err = durable.Open(dir, durable.Options{Sync: durable.SyncNever}); err != nil {
		return nil, err
	}
	lv["durable.snapshot_encode_s"] = timed("durable.Store.Compact", func() { err = s.wal.Compact(s.g, s.r.ClosureState()) })
	if err != nil {
		return nil, err
	}
	s.r.StartDerivationJournal()
	s.engine = core.NewEngine(s.g, s.r)
	s.engine.SetCoach(healthcoach.New(s.g, healthcoach.DefaultWeights()))
	s.g.Publish()
	lv["store.dict_terms"] = float64(s.g.Dict().Len())
	return s, nil
}

// tally accumulates what spans cannot carry: rows and bytes.
type tally struct {
	sparqlOps, rows    float64
	rowsByFormat       map[string]float64
	turtleBytes        float64
	walBytes, commits  float64
	recommends, scored float64
}

type countingWriter struct{ n float64 }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += float64(len(p)); return len(p), nil }

// sparqlOp replays a /sparql op: parse, pin, evaluate, serialize.
func (s *stack) sparqlOp(tr *trace.Tracer, t *tally, op *workload.Op, id int) error {
	root := tr.Start("op.sparql", -1, id)
	defer tr.End(root)
	sp := tr.Start("sparql.ParseQuery", root, id)
	q, err := sparql.ParseQuery(op.Query)
	tr.End(sp)
	if err != nil {
		return err
	}
	sp = tr.Start("store.Graph.Snapshot", root, id)
	g := s.g.Snapshot().Graph()
	tr.End(sp)
	sp = tr.Start("sparql.Execute", root, id)
	res, err := sparql.Execute(g, q)
	tr.End(sp)
	if err != nil {
		return err
	}
	t.sparqlOps++
	if op.Format == "turtle" {
		var cw countingWriter
		sp = tr.Start("turtle.Write", root, id)
		err = turtle.Write(&cw, res.Graph)
		tr.End(sp)
		t.turtleBytes += cw.n
		t.rows += float64(res.Graph.Len())
		return err
	}
	sp = tr.Start("sparql.Result.Write/"+op.Format, root, id)
	switch op.Format {
	case "json":
		err = res.WriteJSON(io.Discard)
	case "xml":
		err = res.WriteXML(io.Discard)
	case "csv":
		err = res.WriteCSV(io.Discard)
	default:
		err = res.WriteTSV(io.Discard)
	}
	tr.End(sp)
	t.rows += float64(res.Len())
	t.rowsByFormat[op.Format] += float64(res.Len())
	return err
}

// explainOp replays an /explain op the way Session.commitWrite runs it:
// transaction, generate (which re-materializes the question's delta),
// WAL append, fsync, deferred commit, publish.
func (s *stack) explainOp(tr *trace.Tracer, t *tally, op *workload.Op, id int) error {
	q, err := question(op)
	if err != nil {
		return err
	}
	root := tr.Start("op.explain", -1, id)
	defer tr.End(root)
	mark := s.r.JournalLen()
	tx := s.g.Begin()
	sp := tr.Start("core.Engine.Explain/"+op.ExplainType, root, id)
	_, opErr := s.engine.Explain(q)
	tr.End(sp)
	before := s.wal.WALSize()
	sp = tr.Start("durable.Store.Append", root, id)
	changes := tx.Changes()
	err = s.wal.Append(durable.Record{
		Cleared: changes.Cleared(), Ops: changes.Ops(), EndVersion: changes.EndVersion(),
		TotalInferred: s.r.TotalInferred(), Derivations: s.r.JournalSince(mark),
	})
	tr.End(sp)
	if err != nil {
		return err
	}
	sp = tr.Start("durable.Store.Sync", root, id)
	err = s.wal.Sync()
	tr.End(sp)
	tx.CommitDeferred()
	t.walBytes += float64(s.wal.WALSize() - before)
	t.commits++
	sp = tr.Start("store.Graph.Publish", root, id)
	s.g.Publish()
	tr.End(sp)
	if opErr != nil {
		return opErr
	}
	return err
}

func (s *stack) recommendOp(tr *trace.Tracer, t *tally, op *workload.Op, id int) {
	root := tr.Start("op.recommend", -1, id)
	defer tr.End(root)
	g := s.g.Snapshot().Graph()
	coach := healthcoach.New(g, healthcoach.DefaultWeights())
	sp := tr.Start("healthcoach.Coach.Recommend", root, id)
	coach.Recommend(rdf.NewIRI(op.User), 5)
	tr.End(sp)
	t.recommends++
	t.scored += float64(len(g.InstancesOf(ontology.FoodRecipe)))
}

// replay fills out.vals with the replay-derived layer metrics. sess is a
// durable feo.Session on the same seeded dataset.
func replay(out *outcome, cfg runConfig, sess *feo.Session) error {
	lv := out.vals
	dir, err := os.MkdirTemp(cfg.work, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	tr := trace.New()
	s, err := buildStack(tr, lv, cfg.dataset.Config(), dir)
	if err != nil {
		return err
	}
	ops := cfg.spec.Generate(cfg.seed, cfg.seconds, s.kg).Measured()

	// Alternate blocks of ops between a recording tracer and the nil
	// tracer: both halves see the same mix, and the ratio of their mean
	// op times is the cost of tracing itself.
	// t counts rows and bytes in the traced blocks only, to match the spans.
	t, untraced := &tally{rowsByFormat: map[string]float64{}}, &tally{rowsByFormat: map[string]float64{}}
	var elapsed, count [2]float64 // [0] untraced, [1] traced
	block := 4 * cfg.spec.Group   // for bulk_export, a whole rotation of texts × formats
	replayed, start := 0, time.Now()
	for lo := 0; lo+block <= len(ops) && (time.Since(start) < replayBudget || (lo/block)%2 == 1); lo += block {
		half, use, counts := (lo/block)%2, tr, t
		if half == 0 {
			use, counts = nil, untraced
		}
		t0 := time.Now()
		for i := lo; i < lo+block; i++ {
			op := &ops[i]
			switch op.Kind {
			case workload.Sparql:
				err = s.sparqlOp(use, counts, op, i)
			case workload.Explain:
				err = s.explainOp(use, counts, op, i)
			default:
				s.recommendOp(use, counts, op, i)
			}
			if err != nil {
				return fmt.Errorf("replaying op %d: %w", i, err)
			}
		}
		elapsed[half] += time.Since(t0).Seconds()
		count[half] += float64(block)
		replayed = lo + block
	}
	if count[0] > 0 && count[1] > 0 {
		lv["harness.tracing_overhead_ratio"] = (elapsed[1] / count[1]) / (elapsed[0] / count[0])
	}
	ops = ops[:replayed]
	wrote := t.commits > 0

	s.probes(tr, lv, ops, wrote)
	if err := s.reopen(tr, lv); err != nil {
		return err
	}
	if err := sessionProbes(tr, lv, sess, ops, wrote); err != nil {
		return err
	}

	// Spans → metrics.
	agg := trace.Aggregate(tr.Spans())
	lv["sparql.parse_us"] = agg["sparql.ParseQuery"].MeanUS()
	lv["sparql.exec_us"] = agg["sparql.Execute"].MeanUS()
	if t.sparqlOps > 0 {
		lv["sparql.rows_per_op"] = t.rows / t.sparqlOps
	}
	for format, rows := range t.rowsByFormat {
		if rows > 0 {
			lv["sparql.serialize_ns_per_row."+format] = float64(agg["sparql.Result.Write/"+format].Total) / rows
		}
	}
	if tw := agg["turtle.Write"]; tw.Count > 0 {
		lv["turtle.write_mb_per_s"] = t.turtleBytes / 1e6 / tw.Total.Seconds()
	}
	for _, typ := range feo.AllExplanationTypes() {
		lv["core.explain_us."+typ.String()] = agg["core.Engine.Explain/"+typ.String()].MeanUS()
	}
	lv["durable.append_us"] = agg["durable.Store.Append"].MeanUS()
	lv["durable.fsync_us"] = agg["durable.Store.Sync"].MeanUS()
	lv["store.publish_us"] = agg["store.Graph.Publish"].MeanUS()
	if wrote {
		lv["durable.wal_bytes_per_commit"] = t.walBytes / t.commits
	}
	lv["healthcoach.recommend_ms"] = agg["healthcoach.Coach.Recommend"].MeanUS() / 1e3
	if t.recommends > 0 {
		lv["healthcoach.recipes_scored_per_op"] = t.scored / t.recommends
	}
	lv["reasoner.delta_us"] = agg["core.Engine.Rematerialize"].MeanUS()
	lv["store.lookup_ns"] = agg["store.Graph.Has×1000"].MeanUS()
	lv["feo.pin_ns"] = agg["feo.Session.Snapshot×1000"].MeanUS()
	lv["feo.pin_after_commit_us"] = agg["feo.Session.Snapshot/after-commit"].MeanUS()
	lv["feo.explain_us.trace-based"] = agg["feo.Session.Explain/trace-based"].MeanUS()
	lv["feo.explain_us.other"] = agg["feo.Session.Explain/other"].MeanUS()
	lv["feo.update_us"] = agg["feo.Session.Update"].MeanUS()

	f, err := os.Create(filepath.Join(cfg.results, fmt.Sprintf("%s-seed%d-spans.jsonl", cfg.spec.Name, cfg.seed)))
	if err != nil {
		return err
	}
	if err := tr.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probeRounds is how often each fixed-shape probe runs.
const probeRounds = 50

// probes time layer calls the ops do not isolate: a point lookup, the
// streaming path's first byte and allocations, and — when the workload
// writes — the reasoner's delta for one question-shaped assertion.
func (s *stack) probes(tr *trace.Tracer, lv map[string]float64, ops []workload.Op, wrote bool) {
	root := tr.Start("replay.probes", -1, -1)
	defer tr.End(root)
	g := s.g.Snapshot().Graph()
	for round := 0; round < probeRounds; round++ {
		sp := tr.Start("store.Graph.Has×1000", root, -1)
		for i := 0; i < 1000; i++ {
			g.Has(s.kg.Recipes[(round*1000+i)%len(s.kg.Recipes)], rdf.TypeIRI, ontology.FoodRecipe)
		}
		tr.End(sp)
	}

	// Streaming: time to the first byte out, and allocations per row.
	var rows, allocs, firstUS, streams float64
	for i := range ops {
		op := &ops[i]
		if op.Kind != workload.Sparql || op.Format == "turtle" || streams >= probeRounds {
			continue
		}
		fw := &firstWriter{start: time.Now()}
		m0 := mallocs()
		st, err := sparql.RunStream(g, op.Query, sparql.NewJSONWriter(fw), sparql.StreamOptions{})
		if err != nil || st.Rows == 0 {
			continue
		}
		allocs += float64(mallocs() - m0)
		rows += float64(st.Rows)
		firstUS += float64(fw.first) / 1e3
		streams++
	}
	if streams > 0 {
		lv["sparql.stream_allocs_per_row"] = allocs / rows
		lv["sparql.stream_first_row_us"] = firstUS / streams
	}

	if wrote {
		for i := 0; i < probeRounds; i++ {
			q := rdf.NewIRI(fmt.Sprintf("%sprobe/q%d", rdf.KGNS, i))
			tx := s.g.Begin()
			s.g.Add(q, rdf.TypeIRI, ontology.FEOFoodQuestion)
			s.g.Add(q, ontology.FEOHasParameter, s.kg.Recipes[i%len(s.kg.Recipes)])
			sp := tr.Start("core.Engine.Rematerialize", root, -1)
			s.engine.Rematerialize()
			tr.End(sp)
			tx.Commit()
		}
	}
}

// firstWriter notes when the first byte reaches it.
type firstWriter struct {
	start time.Time
	first time.Duration
}

func (f *firstWriter) Write(p []byte) (int, error) {
	if f.first == 0 && len(p) > 0 {
		f.first = time.Since(f.start)
	}
	return len(p), nil
}

// reopen closes the stack's durability store and recovers the directory,
// as a restarted server would.
func (s *stack) reopen(tr *trace.Tracer, lv map[string]float64) error {
	if err := s.wal.Close(); err != nil {
		return err
	}
	m0 := mallocs()
	sp := tr.Start("durable.Open", -1, -1)
	st, boot, err := durable.Open(s.dir, durable.Options{Sync: durable.SyncNever})
	tr.End(sp)
	if err != nil {
		return err
	}
	span := tr.Spans()[sp]
	lv["durable.open_s"] = (span.End - span.Start).Seconds()
	lv["durable.snapshot_decode_allocs"] = float64(mallocs() - m0)
	lv["durable.replay_frames"] = float64(boot.Records)
	return st.Close()
}

// sessionProbes time the public feo.Session surface: the replayed
// explanations end to end, an update, a quiet pin and the first pin after
// a commit (which pays the deferred publish).
func sessionProbes(tr *trace.Tracer, lv map[string]float64, sess *feo.Session, ops []workload.Op, wrote bool) error {
	root := tr.Start("replay.session", -1, -1)
	defer tr.End(root)
	for i := range ops {
		op := &ops[i]
		if op.Kind != workload.Explain {
			continue
		}
		q, err := question(op)
		if err != nil {
			return err
		}
		name := "feo.Session.Explain/other"
		if op.ExplainType == "trace-based" {
			name = "feo.Session.Explain/trace-based"
		}
		sp := tr.Start(name, root, i)
		_, err = sess.Explain(q)
		tr.End(sp)
		if err != nil {
			return err
		}
	}
	for round := 0; round < probeRounds; round++ {
		sp := tr.Start("feo.Session.Snapshot×1000", root, -1)
		for i := 0; i < 1000; i++ {
			sess.Snapshot()
		}
		tr.End(sp)
	}
	if !wrote {
		return nil
	}
	for i := 0; i < probeRounds; i++ {
		sp := tr.Start("feo.Session.Update", root, -1)
		_, err := sess.Update(fmt.Sprintf(`INSERT DATA { <%sprobe/u%d> rdfs:label "probe" }`, rdf.KGNS, i))
		tr.End(sp)
		if err != nil {
			return err
		}
		sp = tr.Start("feo.Session.Snapshot/after-commit", root, -1)
		sess.Snapshot()
		tr.End(sp)
	}
	return nil
}
