package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/bench/workload"
	"repro/feo"
)

// compactBytes is the WAL size at which a durable session compacts:
// feo.Options.CompactBytes' default, which `feo serve` does not expose.
const compactBytes = 64 << 20

// seedDataDir is the seed child: it builds the workload's dataset through
// the public feo.Open API — the only way to put a large FoodKG behind the
// real `feo serve` without touching product code — leaving a snapshot in
// dir. For a workload with CompactAfter it then asserts explanations
// until the write-ahead log is so long that the op list's own
// explanations, at the bytes per commit observed here, carry it over the
// compaction threshold at the wanted point of the run. The log is
// fsynced once, on Close.
func seedDataDir(dir, name string, seed int64, seconds float64, smoke bool) error {
	spec, ok := workload.Lookup(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	dataset := spec.Dataset
	if smoke {
		dataset = workload.KGSmoke
	}
	sess, err := feo.Open(feo.Options{Data: feo.DataSynthetic, KG: dataset.Config(),
		DataDir: dir, Sync: feo.SyncNever})
	if err != nil {
		return err
	}
	if spec.CompactAfter > 0 && !smoke {
		if err := prefillWAL(sess, dir, spec, seed, seconds); err != nil {
			return err
		}
	}
	return sess.Close()
}

// The prefill alternates eight padded questions with eight plain ones
// (a cycle of the cheap types each). The plain ones are the op list's
// kind of commit; the mean of the last prefillWindow of them predicts
// what the list's explanations will add to the log.
const (
	prefillPad    = 48 << 10
	prefillWindow = 128
)

func prefillWAL(sess *feo.Session, dir string, spec workload.Spec, seed int64, seconds float64) error {
	ahead := int64(spec.Generate(seed, seconds, sess.KG()).ExplainsBeforeCompaction())
	next := spec.PrefillOps(seed, sess.KG())
	walSize := func() (int64, error) {
		fi, err := os.Stat(filepath.Join(dir, "wal-1.log"))
		if err != nil {
			return 0, err
		}
		return fi.Size(), nil
	}
	size, err := walSize()
	if err != nil {
		return err
	}
	var plain []int64 // log growth of the most recent plain commits
	for {
		for k := 0; k < 16; k++ {
			pad := prefillPad
			if k >= 8 {
				pad = 0
			}
			op := next(pad)
			q, err := question(&op)
			if err != nil {
				return err
			}
			if _, err := sess.Explain(q); err != nil {
				return err
			}
			grown, err := walSize()
			if err != nil {
				return err
			}
			if pad == 0 {
				plain = append(plain, grown-size)
			}
			size = grown
		}
		if len(plain) < prefillWindow {
			continue
		}
		plain = plain[len(plain)-prefillWindow:]
		var sum int64
		for _, b := range plain {
			sum += b
		}
		// Stop where the list's explanations will carry the log over the
		// threshold at the wanted point.
		if size+ahead*sum/prefillWindow >= compactBytes {
			return nil
		}
	}
}

// question rebuilds the feo.Question an /explain op carries.
func question(op *workload.Op) (feo.Question, error) {
	typ, err := feo.ParseExplanationType(op.ExplainType)
	if err != nil {
		return feo.Question{}, err
	}
	q := feo.Question{Type: typ, Primary: feo.IRI(op.Primary), Text: op.Text}
	if op.Secondary != "" {
		q.Secondary = feo.IRI(op.Secondary)
	}
	if op.User != "" {
		q.User = feo.IRI(op.User)
	}
	return q, nil
}
