package presto

import (
	"testing"

	"presto/internal/scheme"
)

// FuzzSchemeSpec feeds scheme.ParseSpec any string: it must refuse it
// or parse a spec whose normal spelling parses back to itself. The seeds are every scheme
// spec of the experiment table and the lineup, and every shared key
// at each of its values.
func FuzzSchemeSpec(f *testing.F) {
	seeds := map[string]bool{}
	for _, c := range tableCells(f) {
		seeds[c.Scheme] = true
	}
	for _, r := range lineup {
		seeds[r.spec] = true
	}
	for key, values := range map[string][]string{
		"gro":    {"official", "presto", "none"},
		"alpha":  {"0.5", "1", "2", "4"},
		"cc":     {"cubic", "reno", "dctcp"},
		"labels": {"per-host", "tunnel"},
	} {
		for _, v := range values {
			seeds["presto:"+key+"="+v] = true
			seeds["ecmp:"+key+"="+v] = true
		}
	}
	for s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := scheme.ParseSpec(spec)
		if err != nil {
			return
		}
		normal := s.Normal()
		again, err := scheme.ParseSpec(normal)
		if err != nil || again.Normal() != normal {
			t.Fatalf("%q renders %q, which parses to %v, %v", spec, normal, again.Values, err)
		}
	})
}
