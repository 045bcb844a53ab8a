package scheme

import (
	"sort"
	"strings"
	"testing"

	"presto/internal/packet"
	"presto/internal/param"
	"presto/internal/sim"
	"presto/internal/vswitch"
)

// TestParseSpecAndCanonical: ParseSpec validates a spec against the
// registry; String renders it as given, keys sorted, and Normal in its
// one spelling.
func TestParseSpecAndCanonical(t *testing.T) {
	s, err := ParseSpec("presto")
	if err != nil || s.Name != "presto" || len(s.Values) != 0 || s.String() != "presto" {
		t.Fatalf("ParseSpec(presto) = %v, %v, %v", s.Scheme, s.Values, err)
	}
	s, err = ParseSpec("diffflow:threshold=512KB, cell=32KB")
	if err != nil || s.Name != "diffflow" {
		t.Fatalf("ParseSpec(diffflow:...) = %v, %v", s.Scheme, err)
	}
	if s.Values["threshold"] != "512KB" || s.Values["cell"] != "32KB" {
		t.Errorf("params = %v", s.Values)
	}
	for spec, want := range map[string][2]string{
		"diffflow:threshold=512KB, cell=32KB": {"diffflow:cell=32KB,threshold=512KB", "diffflow:cell=32KB,threshold=512KB"},
		"presto:cell=65536,gro=presto":        {"presto:cell=65536,gro=presto", "presto"},
		"ecmp:gro=official,cc=cubic":          {"ecmp:cc=cubic,gro=official", "ecmp"},
		"presto:alpha=2.0,labels=per-host":    {"presto:alpha=2.0,labels=per-host", "presto"},
		"ecmp:gro=presto,alpha=0.50":          {"ecmp:alpha=0.50,gro=presto", "ecmp:alpha=0.5,gro=presto"},
		"flowlet:gap=0.1ms":                   {"flowlet:gap=0.1ms", "flowlet:gap=100us"},
	} {
		s, err := ParseSpec(spec)
		if got := [2]string{s.String(), s.Normal()}; err != nil || got != want {
			t.Errorf("ParseSpec(%q) renders %q, %v; want %q", spec, got, err, want)
		}
	}
	// Bad specs are rejected with validation.
	for _, bad := range []string{"nosuch", "presto:bogus=1", "presto:cell", "flowlet:gap=zzz", "presto:cell=4GB"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// TestSharedKeys: every scheme takes the four shared keys at exactly
// their listed values, and refuses any other value with an error that
// names the key. alpha is refused unless the resolved gro is presto.
func TestSharedKeys(t *testing.T) {
	accepted := map[string][]string{
		"gro":    {"official", "presto", "none"},
		"alpha":  {"0.5", "1", "2", "4"},
		"cc":     {"cubic", "reno", "dctcp"},
		"labels": {"per-host", "tunnel"},
	}
	refused := map[string][]string{
		"gro":    {"", "Presto", "off"},
		"alpha":  {"0.4", "4.5", "NaN", "two"},
		"cc":     {"bbr", "CUBIC"},
		"labels": {"host", "tunnels"},
	}
	for _, name := range Names() {
		for key, values := range accepted {
			for _, v := range values {
				spec := name + ":" + key + "=" + v
				if key == "alpha" {
					spec += ",gro=presto"
				}
				if _, err := ParseSpec(spec); err != nil {
					t.Errorf("%s refused: %v", spec, err)
				}
			}
			for _, v := range refused[key] {
				spec := name + ":gro=presto," + key + "=" + v
				if _, err := ParseSpec(spec); err == nil || !strings.Contains(err.Error(), "param "+key) {
					t.Errorf("%s: %v, want an error naming param %s", spec, err, key)
				}
			}
		}
	}
	for _, bad := range []string{"ecmp:alpha=1", "presto:gro=official,alpha=2", "per-packet:gro=none,alpha=4"} {
		if _, err := ParseSpec(bad); err == nil || !strings.Contains(err.Error(), "param alpha") {
			t.Errorf("%s: %v, want an error naming param alpha", bad, err)
		}
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names not sorted: %v", names)
	}
	for _, want := range []string{
		"ecmp", "mptcp", "presto", "flowlet", "presto-ecmp", "per-packet",
		"diffflow", "sprinklers", "rdna-balance", "spritz",
	} {
		if _, err := ParseSpec(want); err != nil {
			t.Errorf("scheme %q missing from registry", want)
		}
	}
}

// TestBuiltinsConstruct instantiates every registered scheme with
// default params and checks the constructor returns a live policy
// without consuming randomness unless it forks.
func TestBuiltinsConstruct(t *testing.T) {
	for _, name := range Names() {
		s := registry[name]
		r, err := s.Resolve(nil)
		if err != nil {
			t.Fatalf("%s: resolve defaults: %v", name, err)
		}
		forks := 0
		h := Host{ID: 3, Fork: func() *sim.RNG { forks++; return sim.NewRNG(1) }}
		p := s.New(h, r)
		if p == nil {
			t.Fatalf("%s: New returned nil", name)
		}
		if p.Name() == "" {
			t.Errorf("%s: policy has no name", name)
		}
		if forks > 1 {
			t.Errorf("%s: constructor forked the RNG %d times (max one)", name, forks)
		}
		tr := s.TransportFor(r)
		if tr.MaxSeg < 0 || tr.Subflows < 0 {
			t.Errorf("%s: nonsense transport %+v", name, tr)
		}
		if tr.MaxSeg > 0 && tr.MaxSeg < packet.MSS {
			t.Errorf("%s: MaxSeg %d below one MSS", name, tr.MaxSeg)
		}
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(what string, s *Scheme) {
		defer func() {
			if recover() == nil {
				t.Errorf("Register(%s) did not panic", what)
			}
		}()
		Register(s)
	}
	newP := func(Host, param.Resolved) vswitch.Policy { return vswitch.NewPresto(packet.MaxSegSize) }
	mustPanic("no name", &Scheme{New: newP})
	mustPanic("no constructor", &Scheme{Name: "x-no-new"})
	mustPanic("duplicate", &Scheme{Name: "presto", New: newP})
	mustPanic("bad default", &Scheme{
		Name: "x-bad-default", New: newP,
		Params: []param.Param{{Name: "cell", Kind: param.KindBytes, Default: "oops"}},
	})
}
