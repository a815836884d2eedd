package sparql

import (
	"encoding/json"
	"encoding/xml"
	"strings"
	"testing"

	"repro/internal/rdf"
)

func formatFixture(t *testing.T) *Result {
	g := testGraph(t, fixture)
	return run(t, g, `PREFIX ex: <http://e/>
SELECT ?p ?name ?f WHERE {
  ?p ex:name ?name . OPTIONAL { ?p ex:likes ?f }
} ORDER BY ?name`)
}

func TestWriteJSONConformsToW3CShape(t *testing.T) {
	res := formatFixture(t)
	var sb strings.Builder
	if err := res.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Head struct {
			Vars []string `json:"vars"`
		} `json:"head"`
		Results struct {
			Bindings []map[string]struct {
				Type  string `json:"type"`
				Value string `json:"value"`
			} `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if len(doc.Head.Vars) != 3 {
		t.Errorf("vars = %v", doc.Head.Vars)
	}
	if len(doc.Results.Bindings) != 4 {
		t.Errorf("bindings = %d, want 4", len(doc.Results.Bindings))
	}
	first := doc.Results.Bindings[0]
	if first["p"].Type != "uri" || first["name"].Type != "literal" {
		t.Errorf("term typing wrong: %v", first)
	}
	// Carol has no likes: her row must omit ?f rather than bind empty.
	for _, row := range doc.Results.Bindings {
		if row["name"].Value == "Carol" {
			if _, bound := row["f"]; bound {
				t.Error("unbound variable must be omitted in JSON bindings")
			}
		}
	}
}

func TestWriteJSONAsk(t *testing.T) {
	g := testGraph(t, fixture)
	res := run(t, g, `PREFIX ex: <http://e/> ASK { ex:alice ex:likes ex:sushi }`)
	var sb strings.Builder
	if err := res.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Boolean *bool `json:"boolean"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Boolean == nil || !*doc.Boolean {
		t.Errorf("ASK JSON: %s", sb.String())
	}
}

func TestWriteCSV(t *testing.T) {
	res := formatFixture(t)
	var sb strings.Builder
	if err := res.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// The W3C SPARQL 1.1 CSV format (RFC 4180) requires CRLF record endings.
	if strings.Count(out, "\r\n") != strings.Count(out, "\n") {
		t.Errorf("csv records must end in CRLF:\n%q", out)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\r\n"), "\r\n")
	if len(lines) != 5 {
		t.Fatalf("csv lines = %d, want header+4:\n%s", len(lines), out)
	}
	if lines[0] != "p,name,f" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(out, "Alice") {
		t.Error("csv missing data")
	}
}

func TestWriteTSVUsesNTriplesTerms(t *testing.T) {
	res := formatFixture(t)
	var sb strings.Builder
	if err := res.WriteTSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "?p\t?name\t?f") {
		t.Errorf("tsv header wrong:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "<http://e/alice>") {
		t.Error("tsv should render IRIs in angle brackets")
	}
	if !strings.Contains(sb.String(), `"Alice"`) {
		t.Error("tsv should render literals quoted")
	}
}

// TestCSVAndTSVTermForms pins each RDF term form in the two text formats
// (W3C SPARQL 1.1 CSV/TSV §2.1 and §3.1): CSV writes lexical values but
// keeps blank nodes distinguishable as _:label; TSV writes N-Triples
// terms; an unbound cell is empty in both.
func TestCSVAndTSVTermForms(t *testing.T) {
	res := &Result{
		Kind: KindSelect,
		Vars: []string{"iri", "bnode", "plain", "lang", "typed", "unbound"},
		Solutions: []Solution{{
			"iri":   rdf.NewIRI("http://e/x"),
			"bnode": rdf.NewBlank("b1"),
			"plain": rdf.NewLiteral("b1"),
			"lang":  rdf.NewLangLiteral("chat", "fr"),
			"typed": rdf.NewInt(42),
		}},
	}
	var csvOut, tsvOut strings.Builder
	if err := res.WriteCSV(&csvOut); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteTSV(&tsvOut); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ format, got, want string }{
		{"csv", csvOut.String(), "iri,bnode,plain,lang,typed,unbound\r\n" +
			"http://e/x,_:b1,b1,chat,42,\r\n"},
		{"tsv", tsvOut.String(), "?iri\t?bnode\t?plain\t?lang\t?typed\t?unbound\n" +
			"<http://e/x>\t_:b1\t\"b1\"\t\"chat\"@fr\t\"42\"^^<" + rdf.XSDInteger + ">\t\n"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.format, tc.got, tc.want)
		}
	}
}

func TestWriteXMLWellFormed(t *testing.T) {
	res := formatFixture(t)
	var sb strings.Builder
	if err := res.WriteXML(&sb); err != nil {
		t.Fatal(err)
	}
	// Must be well-formed XML.
	dec := xml.NewDecoder(strings.NewReader(sb.String()))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("ill-formed XML: %v\n%s", err, sb.String())
		}
	}
	if !strings.Contains(sb.String(), `<variable name="p"/>`) {
		t.Error("XML head missing variables")
	}
	if !strings.Contains(sb.String(), "<uri>http://e/alice</uri>") {
		t.Error("XML missing uri binding")
	}
}

func TestWriteXMLAsk(t *testing.T) {
	g := testGraph(t, fixture)
	res := run(t, g, `ASK { ?s ?p ?o }`)
	var sb strings.Builder
	if err := res.WriteXML(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "<boolean>true</boolean>") {
		t.Errorf("ASK XML:\n%s", sb.String())
	}
}

func TestFormatsEscapeSpecials(t *testing.T) {
	g := testGraph(t, `
@prefix ex: <http://e/> .
ex:s ex:p "a,b\"c<d>&e" .
`)
	res := run(t, g, `PREFIX ex: <http://e/> SELECT ?o WHERE { ex:s ex:p ?o }`)
	var csvOut, xmlOut, jsonOut strings.Builder
	if err := res.WriteCSV(&csvOut); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteXML(&xmlOut); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteJSON(&jsonOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csvOut.String(), `"a,b""c<d>&e"`) {
		t.Errorf("csv quoting wrong: %q", csvOut.String())
	}
	if strings.Contains(xmlOut.String(), "<d>") {
		t.Error("xml must escape angle brackets in literals")
	}
	var parsed map[string]any
	if err := json.Unmarshal([]byte(jsonOut.String()), &parsed); err != nil {
		t.Errorf("json escape broke document: %v", err)
	}
}
