package store

import "repro/internal/rdf"

// Graph methods only the tests call.

// Subtract removes every triple of other from g and returns the number removed.
//
//feo:mutates
func (g *Graph) Subtract(other *Graph) int {
	if other == nil {
		return 0
	}
	removed := 0
	other.ForEach(Wildcard, Wildcard, Wildcard, func(t rdf.Triple) bool {
		if g.Remove(t.S, t.P, t.O) {
			removed++
		}
		return true
	})
	return removed
}

// TypesOf returns the asserted rdf:type objects of s, sorted.
//
//feo:frozen-safe
func (g *Graph) TypesOf(s rdf.Term) []rdf.Term {
	return g.Objects(s, rdf.TypeIRI)
}

// AddList writes members as an RDF collection using fresh blank nodes with
// the given label prefix and returns the head term (rdf:nil for an empty
// list).
//
//feo:mutates
func (g *Graph) AddList(labelPrefix string, members []rdf.Term) rdf.Term {
	if len(members) == 0 {
		return rdf.NilIRI
	}
	head := rdf.NewBlank(labelPrefix + "0")
	cur := head
	for i, m := range members {
		g.Add(cur, rdf.FirstIRI, m)
		if i == len(members)-1 {
			g.Add(cur, rdf.RestIRI, rdf.NilIRI)
		} else {
			next := rdf.NewBlank(labelPrefix + itoa(i+1))
			g.Add(cur, rdf.RestIRI, next)
			cur = next
		}
	}
	return head
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}
