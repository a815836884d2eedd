package main

import (
	"io"

	"repro/bench/harness"
	"repro/bench/workload"
	"repro/feo"
)

// oracleSample is how many distinct requests of a read workload are
// cross-checked in process.
const oracleSample = 200

var resultWriters = map[string]func(io.Writer) feo.ResultWriter{
	"json": feo.NewJSONResultWriter, "xml": feo.NewXMLResultWriter,
	"csv": feo.NewCSVResultWriter, "tsv": feo.NewTSVResultWriter,
}

// answer evaluates a /sparql op on a pinned in-process snapshot and
// serializes the result into w exactly as the server's handler would:
// the negotiated streaming writer, or Turtle for a graph result.
func answer(sn *feo.Snapshot, op *workload.Op, w io.Writer) (rows int, err error) {
	newWriter := resultWriters[op.Format]
	if newWriter == nil { // turtle: CONSTRUCT
		res, err := sn.Query(op.Query)
		if err != nil {
			return 0, err
		}
		return res.Graph.Len(), feo.WriteGraphTurtle(w, res.Graph)
	}
	st, err := sn.QueryStream(op.Query, newWriter(w), feo.StreamOptions{})
	return st.Rows, err
}

// checkOracle compares the server's first answer to each of the first
// oracleSample distinct Stable requests with the answer of an in-process
// session built from the same seed — generated and materialized here,
// never read from the server's data directory.
func checkOracle(out *outcome, sess *feo.Session, list *workload.List, v *harness.Validator) {
	sn := sess.Snapshot()
	byKey := map[uint64]*workload.Op{}
	for i := range list.Ops {
		if op := &list.Ops[i]; op.Stable {
			if _, ok := byKey[op.Key()]; !ok {
				byKey[op.Key()] = op
			}
		}
	}
	keys, sums := v.Observed()
	if len(keys) > oracleSample {
		keys = keys[:oracleSample]
	}
	for _, key := range keys {
		op := byKey[key]
		var d harness.Digest
		rows, err := answer(sn, op, &d)
		switch {
		case err != nil:
			out.failf("oracle %s: %v", op.Query, err)
		case d.Sum() != sums[key]:
			out.failf("oracle %s (%s): server answered %v, in-process %v", op.Query, op.Format, sums[key], d.Sum())
		case rows < op.MinRows:
			out.failf("oracle %s: %d rows, want ≥ %d", op.Query, rows, op.MinRows)
		}
	}
	out.vals["harness.oracle_checked"] = float64(len(keys))
}
