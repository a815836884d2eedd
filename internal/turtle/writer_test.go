package turtle_test

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/foodkg"
	"repro/internal/ontology"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/turtle"
)

// refWrite is the term-sorted Turtle writer the rank writer replaced,
// kept as its byte-level oracle: every triple decoded, the whole list
// sorted with rdf.Compare, each term formatted at every occurrence.
func refWrite(w io.Writer, g *store.Graph) error {
	bw := bufio.NewWriter(w)
	ns := g.Namespaces()
	for _, prefix := range ns.Prefixes() {
		iri, _ := ns.IRIFor(prefix)
		bw.WriteString("@prefix " + prefix + ": <" + iri + "> .\n")
	}
	if len(ns.Prefixes()) > 0 {
		bw.WriteString("\n")
	}
	ts := g.Triples()
	for i := 0; i < len(ts); {
		j := i
		for j < len(ts) && ts[j].S == ts[i].S {
			j++
		}
		block := ts[i:j]
		bw.WriteString(refTerm(block[0].S, ns) + " ")
		for k := 0; k < len(block); {
			l := k
			for l < len(block) && block[l].P == block[k].P {
				l++
			}
			if k > 0 {
				bw.WriteString(" ;\n    ")
			}
			pred := refTerm(block[k].P, ns)
			if block[k].P.Value == rdf.RDFType {
				pred = "a"
			}
			bw.WriteString(pred + " ")
			for m := k; m < l; m++ {
				if m > k {
					bw.WriteString(", ")
				}
				bw.WriteString(refTerm(block[m].O, ns))
			}
			k = l
		}
		bw.WriteString(" .\n")
		i = j
	}
	return bw.Flush()
}

func refTerm(t rdf.Term, ns *rdf.Namespaces) string {
	switch t.Kind {
	case rdf.KindIRI:
		return refIRI(t.Value, ns)
	case rdf.KindBlank:
		return "_:" + t.Value
	case rdf.KindLiteral:
		if t.Lang != "" {
			return rdf.QuoteLiteral(t.Value) + "@" + t.Lang
		}
		switch {
		case t.Datatype == "" || t.Datatype == rdf.XSDString:
			return rdf.QuoteLiteral(t.Value)
		case t.Datatype == rdf.XSDInteger && refInteger(t.Value),
			t.Datatype == rdf.XSDBoolean && (t.Value == "true" || t.Value == "false"),
			t.Datatype == rdf.XSDDecimal && refDecimal(t.Value):
			return t.Value
		default:
			return rdf.QuoteLiteral(t.Value) + "^^" + refIRI(t.Datatype, ns)
		}
	}
	return t.String()
}

func refIRI(iri string, ns *rdf.Namespaces) string {
	if q, ok := ns.Shrink(iri); ok {
		local := q[strings.IndexByte(q, ':')+1:]
		safe := true
		for _, r := range local {
			if !((r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
				(r >= '0' && r <= '9') || r == '_' || r == '-' || r >= utf8.RuneSelf) {
				safe = false
			}
		}
		if safe {
			return q
		}
	}
	return "<" + iri + ">"
}

func refInteger(s string) bool {
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

func refDecimal(s string) bool {
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	dot := strings.IndexByte(s, '.')
	if dot <= 0 || dot == len(s)-1 {
		return false
	}
	return refInteger(s[:dot]) && refInteger(s[dot+1:])
}

// randomGraph mixes every term shape the writer formats differently:
// prefixed and unshrinkable IRIs, blank nodes, plain, language-tagged and
// escaped literals, invalid UTF-8, and typed literals whose lexical form
// is or is not a native token — numerics next to numeric-looking
// strings under one subject and predicate, where an order that is not
// transitive would make the output depend on insertion order.
func randomGraph(rng *rand.Rand, n int) *store.Graph {
	g := store.New()
	g.Namespaces().Bind("ex", "http://e/")
	lex := []string{"2", "10", "15x", "-3", "+4", "2.50", ".5", "1e2", "NaN", "true", "false",
		"a b", "quote\"d", "back\\slash", "line\nfeed", "cr\rtab\t", "", "caf\xe9", "\xff\xfe", "ünï"}
	dts := []string{rdf.XSDInteger, rdf.XSDDecimal, rdf.XSDDouble, rdf.XSDBoolean, rdf.XSDString,
		rdf.XSDInt, "http://e/dt", "http://other/dt#x"}
	resource := func() rdf.Term {
		switch rng.Intn(5) {
		case 0:
			return rdf.NewBlank(fmt.Sprintf("b%d", rng.Intn(6)))
		case 1:
			return rdf.NewIRI(fmt.Sprintf("http://other/x%d", rng.Intn(5)))
		case 2:
			return rdf.NewIRI(fmt.Sprintf("http://e/with.dot%d", rng.Intn(3)))
		default:
			return rdf.NewIRI(fmt.Sprintf("http://e/s%d", rng.Intn(12)))
		}
	}
	object := func() rdf.Term {
		v := lex[rng.Intn(len(lex))]
		switch rng.Intn(6) {
		case 0:
			return resource()
		case 1:
			return rdf.NewLiteral(v)
		case 2:
			return rdf.NewLangLiteral(v, []string{"en", "fr", "en-GB"}[rng.Intn(3)])
		default:
			return rdf.NewTypedLiteral(v, dts[rng.Intn(len(dts))])
		}
	}
	preds := []rdf.Term{rdf.TypeIRI, rdf.NewIRI("http://e/p"), rdf.NewIRI("http://e/q"), rdf.NewIRI("http://other/r")}
	for i := 0; i < n; i++ {
		g.Add(resource(), preds[rng.Intn(len(preds))], object())
	}
	return g
}

func graphIDs(g *store.Graph) []store.IDTriple {
	var ts []store.IDTriple
	g.ForEachID(store.NoID, store.NoID, store.NoID, func(s, p, o store.ID) bool {
		ts = append(ts, store.IDTriple{S: s, P: p, O: o})
		return true
	})
	return ts
}

func checkSameBytes(t *testing.T, name string, g *store.Graph) {
	t.Helper()
	var want, got strings.Builder
	if err := refWrite(&want, g); err != nil {
		t.Fatal(err)
	}
	if err := turtle.Write(&got, g); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("%s: Write differs from the term-sorted reference\n--- reference\n%s\n--- Write\n%s", name, want.String(), got.String())
	}
}

// TestWriteMatchesTermSortedReference holds Write byte-identical to the
// reference writer on random graphs, the paper's ABoxes and a FoodKG.
func TestWriteMatchesTermSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		checkSameBytes(t, fmt.Sprintf("random#%d", i), randomGraph(rng, 1+rng.Intn(80)))
	}
	checkSameBytes(t, "empty", store.New())
	for _, cq := range []ontology.CompetencyQuestion{ontology.CQ1, ontology.CQ2, ontology.CQ3} {
		checkSameBytes(t, fmt.Sprintf("ABox(CQ%d)", cq), ontology.ABox(cq))
	}
	checkSameBytes(t, "TBox", ontology.TBox())
	checkSameBytes(t, "FoodKG", foodkg.Generate(foodkg.DefaultConfig()).Graph)
}

// TestWriteIDsDedupsAndIgnoresOrder feeds WriteIDs a graph's triples
// shuffled, with duplicates (as a template instantiated over many
// solutions produces), and expects the graph's own document.
func TestWriteIDsDedupsAndIgnoresOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		g := randomGraph(rng, 1+rng.Intn(60))
		ts := graphIDs(g)
		for _, j := range rng.Perm(len(ts))[:len(ts)/2] {
			ts = append(ts, ts[j])
		}
		rng.Shuffle(len(ts), func(a, b int) { ts[a], ts[b] = ts[b], ts[a] })
		var want, got strings.Builder
		refWrite(&want, g)
		st, err := turtle.WriteIDs(&got, g.Namespaces(), ts, g.TermOf, turtle.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() || st.Triples != g.Len() || st.Reason != "" {
			t.Fatalf("graph #%d: stats %+v (want %d triples); output differs:\n--- reference\n%s\n--- WriteIDs\n%s",
				i, st, g.Len(), want.String(), got.String())
		}
	}
}

// TestWriteIDsLimits checks the truncation contract: MaxTriples keeps the
// first triples in output order (closing the statement it cuts),
// MaxBytes cuts between subject blocks,
// Expired stops after the first block, and each ends the document with
// a comment naming the reason.
func TestWriteIDsLimits(t *testing.T) {
	g := foodkg.Generate(foodkg.DefaultConfig()).Graph
	ts := graphIDs(g)
	var full strings.Builder
	if _, err := turtle.WriteIDs(&full, g.Namespaces(), ts, g.TermOf, turtle.Limits{}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		lim    turtle.Limits
		reason string
	}{
		{turtle.Limits{MaxTriples: 7}, "rows"},
		{turtle.Limits{MaxBytes: 5000}, "bytes"},
		{turtle.Limits{Expired: func() bool { return true }}, "deadline"},
		{turtle.Limits{MaxTriples: g.Len()}, ""},
	} {
		var out strings.Builder
		st, err := turtle.WriteIDs(&out, g.Namespaces(), ts, g.TermOf, tc.lim)
		if err != nil {
			t.Fatal(err)
		}
		if st.Reason != tc.reason {
			t.Errorf("%+v: reason %q, want %q", tc.lim, st.Reason, tc.reason)
		}
		body := out.String()
		if tc.reason == "" {
			if body != full.String() {
				t.Errorf("%+v: a cap that does not bind changed the document", tc.lim)
			}
			continue
		}
		comment := "# truncated: " + tc.reason + "\n"
		kept := strings.TrimSuffix(body, comment)
		if tc.reason == "rows" {
			kept = strings.TrimSuffix(kept, " .\n") // a row cap may end a statement early
		}
		if !strings.HasSuffix(body, comment) || !strings.HasPrefix(full.String(), kept) {
			t.Errorf("%+v: not a prefix of the full document plus %q:\n%s", tc.lim, comment, body)
		}
		part, err := turtle.Parse(body)
		if err != nil || part.Len() != st.Triples {
			t.Errorf("%+v: reparsed %d triples (err %v), stats say %d", tc.lim, part.Len(), err, st.Triples)
		}
		if tc.lim.MaxTriples > 0 && st.Triples != tc.lim.MaxTriples {
			t.Errorf("%+v: %d triples", tc.lim, st.Triples)
		}
		if tc.lim.MaxBytes > 0 && (int64(len(body)) < tc.lim.MaxBytes || len(body) > 2*int(tc.lim.MaxBytes)) {
			t.Errorf("%+v: %d bytes", tc.lim, len(body))
		}
	}
}

// BenchmarkTurtleWrite serializes a FoodKG graph (the export path).
func BenchmarkTurtleWrite(b *testing.B) {
	g := foodkg.Generate(foodkg.DefaultConfig()).Graph
	b.ReportAllocs()
	for b.Loop() {
		if err := turtle.Write(io.Discard, g); err != nil {
			b.Fatal(err)
		}
	}
}
