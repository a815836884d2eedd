package feo

import (
	"bytes"
	"testing"
)

// TestRowOrderStableAcrossRepeatsAndRestart runs one SELECT with two free
// positions, a walk of a whole middle index level, and requires the same
// JSON body from 1 000 repeats, and again from 1 000 repeats after the
// session compacts, closes and recovers from its snapshot.
func TestRowOrderStableAcrossRepeatsAndRestart(t *testing.T) {
	const q = `SELECT ?sub ?super WHERE { ?sub rdfs:subClassOf ?super }`
	dir := t.TempDir()
	s, err := Open(Options{Data: DataCQ, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	body := func(s *Session) string {
		var b bytes.Buffer
		if _, err := s.Snapshot().QueryStream(q, NewJSONResultWriter(&b), StreamOptions{}); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	want := body(s)
	if n := bytes.Count([]byte(want), []byte(`"sub"`)); n < 50 {
		t.Fatalf("query matched %d rows, want a level of at least 50", n)
	}
	repeat := func(s *Session, when string) {
		for i := 0; i < 1000; i++ {
			if got := body(s); got != want {
				t.Fatalf("%s, repeat %d: body differs from the first\ngot:\n%s\nwant:\n%s", when, i, got, want)
			}
		}
	}
	repeat(s, "before the restart")
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	repeat(s, "after the restart")
}
