package scheme

import (
	"sort"
	"strings"
	"testing"

	"presto/internal/packet"
	"presto/internal/sim"
	"presto/internal/vswitch"
)

func TestParseBytes(t *testing.T) {
	cases := map[string]int{
		"65536": 65536, "64KB": 64 << 10, "64kb": 64 << 10,
		"1MB": 1 << 20, "2GB": 2 << 30, "128B": 128, " 16KB ": 16 << 10,
	}
	for in, want := range cases {
		got, err := parseBytes(in)
		if err != nil || got != want {
			t.Errorf("parseBytes(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "KB", "12.5KB", "x"} {
		if _, err := parseBytes(bad); err == nil {
			t.Errorf("parseBytes(%q) accepted", bad)
		}
	}
}

func TestResolveDefaultsAndBounds(t *testing.T) {
	s := &Scheme{
		Name: "t",
		Params: []Param{
			{Name: "cell", Kind: KindBytes, Default: "64KB", Min: 1024, Max: 1 << 20},
			{Name: "gap", Kind: KindDuration, Default: "500us", Min: 1000},
			{Name: "frac", Kind: KindFloat, Default: "0.25", Min: 0.01, Max: 1},
			{Name: "n", Kind: KindInt, Default: "8", Min: 1, Max: 64},
		},
	}
	r, err := s.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bytes("cell") != 64<<10 || r.Duration("gap") != 500*sim.Microsecond ||
		r.Float("frac") != 0.25 || r.Int("n") != 8 {
		t.Errorf("defaults wrong: %v %v %v %v", r.Bytes("cell"), r.Duration("gap"), r.Float("frac"), r.Int("n"))
	}
	r, err = s.Resolve(map[string]string{"cell": "16KB", "n": "2"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Bytes("cell") != 16<<10 || r.Int("n") != 2 {
		t.Error("overrides not applied")
	}
	// Out of bounds.
	if _, err := s.Resolve(map[string]string{"cell": "512"}); err == nil {
		t.Error("below-min value accepted")
	}
	if _, err := s.Resolve(map[string]string{"n": "65"}); err == nil {
		t.Error("above-max value accepted")
	}
	// Unknown key.
	if _, err := s.Resolve(map[string]string{"nope": "1"}); err == nil {
		t.Error("unknown key accepted")
	} else if !strings.Contains(err.Error(), "nope") {
		t.Errorf("unknown-key error does not name the key: %v", err)
	}
}

func TestParseSpecAndCanonical(t *testing.T) {
	name, vals, err := ParseSpec("presto")
	if err != nil || name != "presto" || len(vals) != 0 {
		t.Fatalf("ParseSpec(presto) = %q, %v, %v", name, vals, err)
	}
	name, vals, err = ParseSpec("diffflow:threshold=512KB, cell=32KB")
	if err != nil || name != "diffflow" {
		t.Fatalf("ParseSpec(diffflow:...) = %q, %v", name, err)
	}
	if vals["threshold"] != "512KB" || vals["cell"] != "32KB" {
		t.Errorf("params = %v", vals)
	}
	if got := CanonicalSpec(name, vals); got != "diffflow:cell=32KB,threshold=512KB" {
		t.Errorf("CanonicalSpec = %q", got)
	}
	if CanonicalSpec("ecmp", nil) != "ecmp" {
		t.Error("CanonicalSpec without params should be the bare name")
	}
	// Bad specs are rejected with validation.
	for _, bad := range []string{"nosuch", "presto:bogus=1", "presto:cell", "flowlet:gap=zzz", "presto:cell=4GB"} {
		if _, _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
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
		if _, err := Get(want); err != nil {
			t.Errorf("scheme %q missing from registry", want)
		}
	}
}

// TestBuiltinsConstruct instantiates every registered scheme with
// default params and checks the constructor returns a live policy
// without consuming randomness unless it forks.
func TestBuiltinsConstruct(t *testing.T) {
	for _, name := range Names() {
		s, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
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
	newP := func(Host, Resolved) vswitch.Policy { return vswitch.NewPresto(packet.MaxSegSize) }
	mustPanic("no name", &Scheme{New: newP})
	mustPanic("no constructor", &Scheme{Name: "x-no-new"})
	mustPanic("duplicate", &Scheme{Name: "presto", New: newP})
	mustPanic("bad default", &Scheme{
		Name: "x-bad-default", New: newP,
		Params: []Param{{Name: "cell", Kind: KindBytes, Default: "oops"}},
	})
}
