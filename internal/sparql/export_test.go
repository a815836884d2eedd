package sparql

import "strings"

// ShapeRender looks src up in the shape cache, parsing and filing its
// template on a miss, and renders the template with src's parameters.
func ShapeRender(src string) (string, error) {
	pq, err := lookupQuery(src)
	if err != nil {
		return "", err
	}
	return renderer{pq.params}.query(pq.q), nil
}

// MutateConstants returns src with every lifted constant replaced by
// another of its token kind: IRIs and strings by fixed ones, numbers
// digit by digit, booleans by their negation. The fingerprint stays the
// same.
func MutateConstants(src string) string {
	return mutateConstants(src, func(t token) string {
		switch t.kind {
		case tokIRIRef:
			return "<urn:mutated>"
		case tokString:
			return `"mutated"`
		case tokBool:
			if t.text == "true" {
				return "false"
			}
			return "true"
		}
		return strings.Map(func(r rune) rune {
			if r >= '0' && r <= '9' {
				return '0' + (r-'0'+1)%10
			}
			return r
		}, t.text)
	})
}

// StaticBoundMismatches runs src against g and describes every BGP whose
// static bound-slot set differs from the slots bound in every row that
// reaches it (see boundCheck).
var StaticBoundMismatches = staticBoundMismatches
