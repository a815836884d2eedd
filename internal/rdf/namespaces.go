package rdf

import (
	"fmt"
	"maps"
	"sort"
	"strings"
)

// Namespaces maps prefixes to namespace IRIs and back. It powers QName
// expansion in the Turtle parser and SPARQL parser, and IRI compaction in
// serializers and human-facing output.
//
// The zero value is empty and ready to use; methods on a nil receiver behave
// as if the mapping were empty.
type Namespaces struct {
	prefixToIRI map[string]string
	iriToPrefix map[string]string
	base        string
	// gen counts the Bind and SetBase calls that changed the mapping.
	gen uint64
}

// NewNamespaces returns an empty prefix mapping.
func NewNamespaces() *Namespaces {
	return &Namespaces{
		prefixToIRI: make(map[string]string),
		iriToPrefix: make(map[string]string),
	}
}

// StandardNamespaces returns a mapping preloaded with the prefixes used
// throughout this repository: rdf, rdfs, owl, xsd, eo, feo, food, kg.
func StandardNamespaces() *Namespaces {
	ns := NewNamespaces()
	ns.Bind("rdf", RDFNS)
	ns.Bind("rdfs", RDFSNS)
	ns.Bind("owl", OWLNS)
	ns.Bind("xsd", XSDNS)
	ns.Bind("eo", EONS)
	ns.Bind("feo", FEONS)
	ns.Bind("food", FoodNS)
	ns.Bind("kg", KGNS)
	return ns
}

// Bind associates prefix with iri, replacing any previous binding for either.
func (ns *Namespaces) Bind(prefix, iri string) {
	if ns.prefixToIRI == nil {
		ns.prefixToIRI = make(map[string]string)
		ns.iriToPrefix = make(map[string]string)
	}
	old, ok := ns.prefixToIRI[prefix]
	if ok && old == iri && ns.iriToPrefix[iri] == prefix {
		return
	}
	if ok {
		delete(ns.iriToPrefix, old)
	}
	ns.prefixToIRI[prefix] = iri
	ns.iriToPrefix[iri] = prefix
	ns.gen++
}

// SetBase sets the base IRI used to resolve relative IRIs.
func (ns *Namespaces) SetBase(base string) {
	if ns.base != base {
		ns.base = base
		ns.gen++
	}
}

// Generation returns a counter that increases whenever Bind or SetBase
// changes the mapping, so a caller can tell whether a parse declared
// anything new without copying the table.
func (ns *Namespaces) Generation() uint64 {
	if ns == nil {
		return 0
	}
	return ns.gen
}

// Base returns the base IRI, or "" if none is set.
func (ns *Namespaces) Base() string {
	if ns == nil {
		return ""
	}
	return ns.base
}

// Resolve resolves a possibly-relative IRI against the base IRI. It performs
// simple reference resolution sufficient for ontology documents (absolute
// IRIs pass through; relative references are appended to the base).
func (ns *Namespaces) Resolve(iri string) string {
	if ns == nil || ns.base == "" || strings.Contains(iri, "://") || strings.HasPrefix(iri, "urn:") || strings.HasPrefix(iri, "mailto:") {
		return iri
	}
	if strings.HasPrefix(iri, "#") {
		if i := strings.IndexByte(ns.base, '#'); i >= 0 {
			return ns.base[:i] + iri
		}
		return ns.base + iri
	}
	if strings.HasSuffix(ns.base, "/") || strings.HasSuffix(ns.base, "#") {
		return ns.base + iri
	}
	return ns.base + "/" + iri
}

// Expand turns a QName such as "feo:Characteristic" into a full IRI.
// It returns false when the prefix is not bound.
func (ns *Namespaces) Expand(qname string) (string, bool) {
	if ns == nil {
		return "", false
	}
	i := strings.IndexByte(qname, ':')
	if i < 0 {
		return "", false
	}
	base, ok := ns.prefixToIRI[qname[:i]]
	if !ok {
		return "", false
	}
	return base + qname[i+1:], true
}

// MustExpand is Expand that panics on unbound prefixes. It is intended for
// package initialization of well-known vocabularies, where an unbound prefix
// is a programming error.
func (ns *Namespaces) MustExpand(qname string) string {
	iri, ok := ns.Expand(qname)
	if !ok {
		panic(fmt.Sprintf("rdf: cannot expand QName %q: prefix not bound", qname))
	}
	return iri
}

// Shrink compacts a full IRI to a QName using the longest matching namespace.
// It returns false when no bound namespace is a prefix of the IRI or when the
// local part would not be a valid QName local name.
func (ns *Namespaces) Shrink(iri string) (string, bool) {
	if ns == nil {
		return "", false
	}
	best, bestPrefix := "", ""
	// Longest namespace wins; equal-length ties break lexicographically so
	// the chosen QName is independent of map iteration order.
	//feo:unordered
	for nsIRI, prefix := range ns.iriToPrefix {
		if !strings.HasPrefix(iri, nsIRI) {
			continue
		}
		if len(nsIRI) > len(best) || (len(nsIRI) == len(best) && nsIRI < best) {
			best, bestPrefix = nsIRI, prefix
		}
	}
	if best == "" {
		return "", false
	}
	local := iri[len(best):]
	if local == "" || strings.ContainsAny(local, "/#:") {
		return "", false
	}
	return bestPrefix + ":" + local, true
}

// Prefixes returns the bound prefixes in sorted order.
func (ns *Namespaces) Prefixes() []string {
	if ns == nil {
		return nil
	}
	out := make([]string, 0, len(ns.prefixToIRI))
	for p := range ns.prefixToIRI {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// IRIFor returns the namespace IRI bound to prefix.
func (ns *Namespaces) IRIFor(prefix string) (string, bool) {
	if ns == nil {
		return "", false
	}
	iri, ok := ns.prefixToIRI[prefix]
	return iri, ok
}

// Clone returns an independent copy of the mapping. The copy shrinks
// every IRI to the prefix the original does, also where two prefixes
// name one namespace.
func (ns *Namespaces) Clone() *Namespaces {
	if ns == nil {
		return NewNamespaces()
	}
	return &Namespaces{
		prefixToIRI: maps.Clone(ns.prefixToIRI),
		iriToPrefix: maps.Clone(ns.iriToPrefix),
		base:        ns.base,
		gen:         ns.gen,
	}
}
