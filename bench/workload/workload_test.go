package workload

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/foodkg"
)

func smokeKG() *foodkg.KG { return foodkg.Generate(KGSmoke.Config()) }

func TestSameSeedSameListDifferentSeedDifferentList(t *testing.T) {
	for _, s := range Specs() {
		a := s.Generate(7, 1, smokeKG()).Bytes()
		b := s.Generate(7, 1, smokeKG()).Bytes()
		c := s.Generate(8, 1, smokeKG()).Bytes()
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different op lists", s.Name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", s.Name)
		}
	}
}

func TestListLengthIsFixedBySecondsNotByTheClock(t *testing.T) {
	for _, s := range Specs() {
		l := s.Generate(3, 2, smokeKG())
		measured := len(l.Measured())
		if want := s.Rate * 2 * max(s.Stretch, 1); float64(measured) < want || float64(measured) >= want+float64(s.Group) {
			t.Errorf("%s: %d measured ops for 2 s at %g/s", s.Name, measured, s.Rate)
		}
		if measured%s.Group != 0 || l.Warmup%s.Group != 0 {
			t.Errorf("%s: %d measured and %d warm-up ops are not whole groups of %d", s.Name, measured, l.Warmup, s.Group)
		}
		if share := float64(l.Warmup) / float64(measured); share < warmupShare || share > 2*warmupShare {
			t.Errorf("%s: warm-up is %.0f %% of the measured ops, want about %.0f %%", s.Name, share*100, warmupShare*100)
		}
		if twice := s.Generate(3, 4, smokeKG()); len(twice.Measured()) < 2*measured-s.Group {
			t.Errorf("%s: doubling --seconds gave %d ops, was %d", s.Name, len(twice.Measured()), measured)
		}
	}
}

func TestDialoguesArriveAsAPoissonProcess(t *testing.T) {
	spec, _ := Lookup("coach_dialogue")
	l := spec.Generate(11, 200, smokeKG()) // 2000 dialogues
	ops := l.Measured()
	if !ops[0].First || ops[0].Due > 5*time.Second {
		t.Fatalf("the measured schedule starts at %v (first=%t), want its own origin", ops[0].Due, ops[0].First)
	}
	if last, horizon := ops[len(ops)-5].Due, time.Duration(float64(len(ops)/5)/dialogueRate*float64(time.Second)); last > horizon || last < horizon*9/10 {
		t.Errorf("the last of %d dialogues arrives at %v, want just inside the %v horizon", len(ops)/5, last, horizon)
	}
	var gaps []float64
	last := time.Duration(0)
	for i, op := range ops {
		if op.First != (i%5 == 0) {
			t.Fatalf("op %d: First=%t, want a dialogue every five ops", i, op.First)
		}
		if !op.First {
			continue
		}
		if want := [...]Kind{Recommend, Explain, Explain, Sparql, Sparql}; i+5 <= len(ops) {
			for k, kind := range want {
				if ops[i+k].Kind != kind {
					t.Fatalf("dialogue at op %d: step %d is %v, want %v", i, k, ops[i+k].Kind, kind)
				}
			}
		}
		if i > 0 {
			gaps = append(gaps, (op.Due - last).Seconds())
		}
		last = op.Due
	}
	var sum, sumSq float64
	for _, g := range gaps {
		if g < 0 {
			t.Fatal("arrivals go back in time")
		}
		sum += g
		sumSq += g * g
	}
	mean := sum / float64(len(gaps))
	sd := math.Sqrt(sumSq/float64(len(gaps)) - mean*mean)
	// Exponential gaps: mean = sd = 1/rate.
	if want := 1 / dialogueRate; math.Abs(mean-want) > 0.1*want || math.Abs(sd-want) > 0.15*want {
		t.Errorf("inter-arrival mean %.4f s, sd %.4f s; want both about %.4f s", mean, sd, want)
	}
	types := map[string]bool{}
	for _, op := range ops[:45] {
		if op.Kind == Explain {
			types[op.ExplainType] = true
		}
	}
	if len(types) != 9 {
		t.Errorf("nine dialogues cover %d explanation types, want all nine", len(types))
	}
}

func TestChurnMixAndCompactionPoint(t *testing.T) {
	spec, _ := Lookup("write_churn")
	l := spec.Generate(5, 10, smokeKG())
	texts := map[string]bool{}
	for i, op := range l.Ops {
		switch i % 3 {
		case 0:
			if op.Kind != Explain || op.ExplainType == "trace-based" || texts[op.Text] {
				t.Fatalf("op %d: want a cheap explanation with a fresh text, got %+v", i, op)
			}
			texts[op.Text] = true
		case 1:
			if op.Query != ChurnListing || op.Stable {
				t.Fatalf("op %d: want the listing, got %+v", i, op)
			}
		default:
			if !op.Stable || op.MinRows != 1 {
				t.Fatalf("op %d: want a stable point lookup, got %+v", i, op)
			}
		}
	}
	before := l.ExplainsBeforeCompaction()
	total := len(l.Ops) / 3
	if share := float64(before-l.Warmup/3) / float64(total-l.Warmup/3); share < 0.60 || share > 0.85 {
		t.Errorf("compaction aimed at %.0f %% of the measured explanations, want 60–85 %%", share*100)
	}
	next := spec.PrefillOps(5, smokeKG())
	for i := 0; i < 20; i++ {
		if op := next(100 * (i % 2)); op.Kind != Explain || texts[op.Text] || len(op.Text) < 100*(i%2) {
			t.Fatalf("prefill op %d collides with the op list: %+v", i, op)
		}
	}
}

func TestReadWorkloadShapes(t *testing.T) {
	kbqa, _ := Lookup("kbqa_lookup")
	forms := map[string]bool{}
	for _, op := range kbqa.Generate(2, 1, smokeKG()).Ops {
		if !op.Stable || op.Format != "json" || op.Kind != Sparql {
			t.Fatalf("kbqa op %+v", op)
		}
		forms[op.Method+" "+op.ContentType] = true
	}
	if len(forms) != 3 {
		t.Errorf("kbqa uses %d invocation forms, want 3: %v", len(forms), forms)
	}
	bulk, _ := Lookup("bulk_export")
	pairs := map[string]bool{}
	for _, op := range bulk.Generate(2, 1, smokeKG()).Ops[:36] {
		pairs[op.Query+"|"+op.Format] = true
	}
	if len(pairs) != 8*4+1 {
		t.Errorf("36 bulk ops cover %d (text, format) pairs, want 33", len(pairs))
	}
	a := Op{Method: "GET", Target: "/sparql?query=a"}
	b := Op{Method: "GET", Target: "/sparql?query=b"}
	if a.Key() == b.Key() || a.Key() != (&Op{Method: "GET", Target: "/sparql?query=a"}).Key() {
		t.Error("Key does not identify the request")
	}
}
