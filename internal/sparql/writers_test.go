package sparql

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/foodkg"
	"repro/internal/rdf"
	"repro/internal/store"
	"repro/internal/turtle"
)

// writerLexicals covers every byte class the CSV/TSV fast paths treat
// specially: quotes, backslashes, CR, LF, tab, a leading (Unicode)
// space, the lone `\.` that encoding/csv quotes, commas, the empty
// string, invalid UTF-8 and text that looks like a blank node label.
var writerLexicals = []string{
	"", "plain", `"`, `say "hi"`, `\`, `back\slash`, "\r", "\n", "cr\rlf\n", "\r\n", "\t", "tab\tbed",
	" lead", "\tlead", " nbsp", `\.`, `\.x`, ",", "a,b", "\xff", "ok\xffok", "ünï", "_:b1", "trail ",
}

// writerRows builds rows of every term kind over writerLexicals, with an
// unbound cell in each.
func writerRows() [][]rdf.Term {
	var rows [][]rdf.Term
	for _, s := range writerLexicals {
		rows = append(rows,
			[]rdf.Term{rdf.NewIRI("http://e/" + s), rdf.NewBlank("b" + s), {}},
			[]rdf.Term{rdf.NewLiteral(s), rdf.NewLangLiteral(s, "en"), rdf.NewTypedLiteral(s, rdf.XSDInteger)},
			[]rdf.Term{{}, rdf.NewBlank(s), rdf.NewTypedLiteral(s, "http://e/dt")})
	}
	return rows
}

func writeRows(t *testing.T, rw ResultWriter, vars []string, rows [][]rdf.Term) {
	t.Helper()
	if err := rw.Begin(vars); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := rw.Row(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.End(nil); err != nil {
		t.Fatal(err)
	}
}

// TestTSVWriterMatchesTermString holds the TSV writer's in-place term
// formatting to Term.String(), the N-Triples form it replaced.
func TestTSVWriterMatchesTermString(t *testing.T) {
	vars := []string{"a", "b", "c"}
	rows := writerRows()
	var want strings.Builder
	want.WriteString("?a\t?b\t?c\n")
	for _, r := range rows {
		for i, term := range r {
			if i > 0 {
				want.WriteByte('\t')
			}
			if term.IsValid() {
				want.WriteString(term.String())
			}
		}
		want.WriteByte('\n')
	}
	var got bytes.Buffer
	rw := NewTSVWriter(&got)
	writeRows(t, rw, vars, rows)
	if got.String() != want.String() {
		t.Errorf("TSV differs from the Term.String reference:\n--- want\n%q\n--- got\n%q", want.String(), got.String())
	}
	if rw.Written() != int64(got.Len()) {
		t.Errorf("Written() = %d, transport got %d", rw.Written(), got.Len())
	}
}

// TestCSVWriterMatchesEncodingCSV holds the CSV writer's in-place field
// quoting to encoding/csv with UseCRLF, the writer it replaced.
func TestCSVWriterMatchesEncodingCSV(t *testing.T) {
	vars := []string{"a", "b c", "d,e"}
	rows := writerRows()
	var want bytes.Buffer
	cw := csv.NewWriter(&want)
	cw.UseCRLF = true
	cw.Write(vars)
	for _, r := range rows {
		rec := make([]string, len(r))
		for i, term := range r {
			rec[i] = term.Value
			if term.IsBlank() {
				rec[i] = "_:" + term.Value
			}
		}
		cw.Write(rec)
	}
	cw.Flush()
	var got bytes.Buffer
	rw := NewCSVWriter(&got)
	writeRows(t, rw, vars, rows)
	if got.String() != want.String() {
		t.Errorf("CSV differs from encoding/csv:\n--- want\n%q\n--- got\n%q", want.String(), got.String())
	}
	if rw.Written() != int64(got.Len()) {
		t.Errorf("Written() = %d, transport got %d", rw.Written(), got.Len())
	}
}

// TestWritersReuseBuffers checks that a document's pooled buffer is
// released clean: documents written back to back, through every format,
// each come out exactly as a fresh writer writes them alone.
func TestWritersReuseBuffers(t *testing.T) {
	vars, rows := []string{"a", "b", "c"}, writerRows()
	for _, mk := range []func(io.Writer) ResultWriter{NewJSONWriter, NewXMLWriter, NewCSVWriter, NewTSVWriter} {
		var first bytes.Buffer
		writeRows(t, mk(&first), vars, rows)
		for i := 0; i < 3; i++ {
			var again bytes.Buffer
			writeRows(t, mk(&again), vars, rows[i:])
			var alone bytes.Buffer
			writeRows(t, mk(&alone), vars, rows[i:])
			if again.String() != alone.String() {
				t.Fatalf("document %d differs after buffer reuse", i)
			}
		}
	}
}

// graphStreamQueries are CONSTRUCT/DESCRIBE shapes whose streamed Turtle
// must equal turtle.Write of Execute's result graph: plain copies,
// template blank nodes (under ORDER BY, since they are numbered by
// solution), constants the graph does not hold, a literal subject that
// yields nothing, a variable the WHERE clause never binds, expression
// results (extension IDs), duplicates across solutions, descriptions, and
// two prefixes naming one namespace (the later declaration shrinks it).
var graphStreamQueries = []string{
	`CONSTRUCT { ?s ?p ?o } WHERE { ?s ?p ?o }`,
	`CONSTRUCT { ?s ex:tagged [] . ?s ex:seen true } WHERE { ?s ?p ?o } ORDER BY ?s ?p ?o`,
	`CONSTRUCT { ?s <http://new/p> "new" . ?s ex:k 3 } WHERE { ?s a ?c }`,
	`CONSTRUCT { "lit" ?p ?o } WHERE { ?s ?p ?o }`,
	`CONSTRUCT { ?s ex:p ?nowhere } WHERE { ?s ?p ?o }`,
	`CONSTRUCT { ?s ex:len ?n . ?s ex:up ?u } WHERE { ?s ?p ?o . BIND(STRLEN(STR(?o)) AS ?n) BIND(UCASE(STR(?o)) AS ?u) }`,
	`CONSTRUCT { ?o ex:object ex:yes } WHERE { ?s ?p ?o }`,
	`DESCRIBE ex:pizza ex:nobody`,
	`DESCRIBE ?p WHERE { ?p a ex:Person }`,
	`PREFIX b: <http://x/> PREFIX a: <http://x/> CONSTRUCT { ?s a:p ?o } WHERE { ?s ?p ?o }`,
	`PREFIX o: <http://www.w3.org/2002/07/owl#> CONSTRUCT { ?s o:sameAs ?s } WHERE { ?s a ?c }`,
}

func TestGraphStreamMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	graphs := map[string]*store.Graph{"fixture": testGraph(t, fixture)}
	for i := 0; i < 4; i++ {
		graphs[fmt.Sprintf("random#%d", i)] = newGen(rng).genGraph()
	}
	for name, g := range graphs {
		for _, q := range graphStreamQueries {
			src := "PREFIX ex: <http://e/> " + q
			res := run(t, g, src)
			var want, got bytes.Buffer
			if err := turtle.Write(&want, res.Graph); err != nil {
				t.Fatal(err)
			}
			st, err := RunGraphStream(g, src, &got, StreamOptions{})
			if err != nil {
				t.Fatalf("%s: %s: %v", name, q, err)
			}
			if got.String() != want.String() || st.Rows != res.Graph.Len() || st.Truncated {
				t.Errorf("%s: %s: stats %+v (graph %d triples); stream differs:\n--- materialized\n%s\n--- streamed\n%s",
					name, q, st, res.Graph.Len(), want.String(), got.String())
			}
		}
	}
}

func TestGraphStreamRejectsBindings(t *testing.T) {
	var buf bytes.Buffer
	if _, err := RunGraphStream(testGraph(t, fixture), `SELECT * WHERE { ?s ?p ?o }`, &buf, StreamOptions{}); err == nil || buf.Len() != 0 {
		t.Errorf("SELECT through RunGraphStream: err = %v, %d bytes", err, buf.Len())
	}
}

// benchKG is a FoodKG at the serve benchmark's large size (5 000
// recipes, 500 ingredients, 250 users), unmaterialized.
func benchKG(b *testing.B) *store.Graph {
	cfg := foodkg.DefaultConfig()
	cfg.Recipes, cfg.Ingredients, cfg.Users = 5000, 500, 250
	g := foodkg.Generate(cfg).Graph
	b.ResetTimer()
	return g
}

const benchPrefixes = "PREFIX feo: <https://purl.org/heals/feo#> "

// BenchmarkConstructTurtle is the bulk-export CONSTRUCT: copy every
// feo:hasIngredient triple and serialize the graph as Turtle.
func BenchmarkConstructTurtle(b *testing.B) {
	g := benchKG(b)
	q, err := ParseQuery(benchPrefixes + "CONSTRUCT { ?r feo:hasIngredient ?i } WHERE { ?r feo:hasIngredient ?i }")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		st, err := ExecuteGraphStream(g, q, io.Discard, StreamOptions{})
		if err != nil || st.Rows < 20000 {
			b.Fatalf("%+v %v", st, err)
		}
	}
}

// BenchmarkStreamWriters streams the bulk export's first SELECT (recipe,
// ingredient pairs) through each result writer.
func BenchmarkStreamWriters(b *testing.B) {
	g := benchKG(b)
	q, err := ParseQuery(benchPrefixes + "SELECT ?r ?i WHERE { ?r feo:hasIngredient ?i }")
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range []struct {
		name string
		mk   func(io.Writer) ResultWriter
	}{{"json", NewJSONWriter}, {"xml", NewXMLWriter}, {"csv", NewCSVWriter}, {"tsv", NewTSVWriter}} {
		b.Run(f.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if st, err := ExecuteStream(g, q, f.mk(io.Discard), StreamOptions{}); err != nil || st.Rows < 20000 {
					b.Fatalf("%+v %v", st, err)
				}
			}
		})
	}
}
