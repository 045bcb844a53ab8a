package spec

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"presto/internal/cluster"
	"presto/internal/sim"
	"presto/internal/topo"
)

// validSpec returns a minimal valid spec for mutation-based tests.
func validSpec() *Spec {
	return &Spec{
		Version: Version,
		Name:    "test",
		Clients: []Client{{
			ID:      "mice",
			Rate:    1000,
			Arrival: Arrival{Process: ProcPoisson},
			Size:    SizeDist{Kind: SizeFixed, Bytes: 1000},
			Select:  Select{Kind: SelRandom},
		}},
	}
}

func TestValidSpec(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// TestValidateRejections drives the loader through a table of
// malformed specs, asserting each is rejected with an error naming the
// offending field path.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name     string
		mutate   func(*Spec)
		wantPath string // substring the error must contain
	}{
		{"bad version", func(s *Spec) { s.Version = "presto-workload/9" }, "version"},
		{"no clients", func(s *Spec) { s.Clients = nil }, "clients"},
		{"missing id", func(s *Spec) { s.Clients[0].ID = "" }, "clients[0].id"},
		{"duplicate id", func(s *Spec) {
			s.Clients = append(s.Clients, s.Clients[0])
			s.Clients[1].ID = "mice"
		}, "clients[1].id"},
		{"unknown process", func(s *Spec) { s.Clients[0].Arrival.Process = "zeta" }, "clients[0].arrival.process"},
		{"missing process", func(s *Spec) { s.Clients[0].Arrival.Process = "" }, "clients[0].arrival.process"},
		{"no rate", func(s *Spec) { s.Clients[0].Rate = 0 }, "clients[0].rate"},
		{"nan rate", func(s *Spec) { s.Clients[0].Rate = math.NaN() }, "clients[0].rate"},
		{"nan sigma", func(s *Spec) {
			s.Clients[0].Size = SizeDist{Kind: SizeLognormal, MedianBytes: 1000, Sigma: math.NaN()}
		}, "clients[0].size"},
		{"unknown size kind", func(s *Spec) { s.Clients[0].Size.Kind = "zipf" }, "clients[0].size.kind"},
		{"fixed without bytes", func(s *Spec) { s.Clients[0].Size.Bytes = 0 }, "clients[0].size.bytes"},
		{"pareto missing alpha", func(s *Spec) {
			s.Clients[0].Size = SizeDist{Kind: SizePareto, ScaleBytes: 1000}
		}, "clients[0].size.alpha"},
		{"inverted bounds", func(s *Spec) {
			s.Clients[0].Size.Min = 5000
			s.Clients[0].Size.Max = 100
		}, "inverted bounds"},
		{"negative bound", func(s *Spec) { s.Clients[0].Size.Min = -1 }, "clients[0].size.min"},
		{"short cdf", func(s *Spec) {
			s.Clients[0].Size = SizeDist{Kind: SizeEmpirical, CDF: []CDFPoint{{Bytes: 1, Frac: 1}}}
		}, "clients[0].size.cdf"},
		{"cdf not ascending", func(s *Spec) {
			s.Clients[0].Size = SizeDist{Kind: SizeEmpirical, CDF: []CDFPoint{
				{Bytes: 1000, Frac: 0.5}, {Bytes: 500, Frac: 1},
			}}
		}, "clients[0].size.cdf[1]"},
		{"cdf not ending at 1", func(s *Spec) {
			s.Clients[0].Size = SizeDist{Kind: SizeEmpirical, CDF: []CDFPoint{
				{Bytes: 500, Frac: 0.5}, {Bytes: 1000, Frac: 0.9},
			}}
		}, "clients[0].size.cdf[1].frac"},
		{"cdf nan bytes", func(s *Spec) {
			s.Clients[0].Size = SizeDist{Kind: SizeEmpirical, CDF: []CDFPoint{
				{Bytes: math.NaN(), Frac: 0.5}, {Bytes: 1000, Frac: 1},
			}}
		}, "clients[0].size.cdf[0]"},
		{"unknown selection", func(s *Spec) { s.Clients[0].Select.Kind = "mesh" }, "clients[0].select.kind"},
		{"incast tiny fanin", func(s *Spec) {
			s.Clients[0].Select = Select{Kind: SelIncast, FanIn: 1}
		}, "clients[0].select.fan_in"},
		{"pairs empty", func(s *Spec) { s.Clients[0].Select = Select{Kind: SelPairs} }, "clients[0].select.pairs"},
		{"pair self loop", func(s *Spec) {
			s.Clients[0].Select = Select{Kind: SelPairs, Pairs: [][2]int{{3, 3}}}
		}, "clients[0].select.pairs[0]"},
		{"negative stride", func(s *Spec) {
			s.Clients[0].Select = Select{Kind: SelStride, Stride: -1}
		}, "clients[0].select.stride"},
		{"unlimited without once", func(s *Spec) {
			s.Clients[0].Size = SizeDist{Kind: SizeUnlimited}
		}, "clients[0].size.kind"},
		{"once with incast", func(s *Spec) {
			s.Clients[0].Rate = 0
			s.Clients[0].Arrival = Arrival{Process: ProcOnce}
			s.Clients[0].Select = Select{Kind: SelIncast, FanIn: 4}
		}, "clients[0].select.kind"},
		{"negative response", func(s *Spec) { s.Clients[0].ResponseBytes = -1 }, "clients[0].response_bytes"},
		{"response with unlimited", func(s *Spec) {
			s.Clients[0].Rate = 0
			s.Clients[0].Arrival = Arrival{Process: ProcOnce}
			s.Clients[0].Size = SizeDist{Kind: SizeUnlimited}
			s.Clients[0].Select = Select{Kind: SelStride}
			s.Clients[0].ResponseBytes = 100
		}, "clients[0].response_bytes"},
		{"shuffle not once", func(s *Spec) {
			s.Clients[0].Select = Select{Kind: SelShuffle}
		}, "clients[0].arrival.process"},
		{"shuffle not fixed", func(s *Spec) {
			s.Clients[0].Rate = 0
			s.Clients[0].Arrival = Arrival{Process: ProcOnce}
			s.Clients[0].Size = SizeDist{Kind: SizeLognormal, MedianBytes: 1000, Sigma: 1}
			s.Clients[0].Select = Select{Kind: SelShuffle}
		}, "clients[0].size.kind"},
		{"once with rate", func(s *Spec) {
			s.Clients[0].Arrival = Arrival{Process: ProcOnce}
			s.Clients[0].Select = Select{Kind: SelStride}
		}, "clients[0].rate"},
		{"trace plus arrival", func(s *Spec) {
			s.Clients[0].Trace = &TraceSource{Inline: []FlowStart{{Src: 0, Dst: 1, Bytes: 10}}}
		}, "clients[0].trace"},
		{"trace neither source", func(s *Spec) {
			s.Clients[0] = Client{ID: "t", Trace: &TraceSource{}}
		}, "clients[0].trace.inline"},
		{"trace negative at", func(s *Spec) {
			s.Clients[0] = Client{ID: "t", Trace: &TraceSource{
				Inline: []FlowStart{{At: -5, Src: 0, Dst: 1, Bytes: 10}},
			}}
		}, "clients[0].trace.inline[0].at"},
		{"trace bad flow", func(s *Spec) {
			s.Clients[0] = Client{ID: "t", Trace: &TraceSource{
				Inline: []FlowStart{{Src: 2, Dst: 2, Bytes: 10}},
			}}
		}, "clients[0].trace.inline[0]"},
		{"trace zero bytes", func(s *Spec) {
			s.Clients[0] = Client{ID: "t", Trace: &TraceSource{
				Inline: []FlowStart{{Src: 0, Dst: 1, Bytes: 0}},
			}}
		}, "clients[0].trace.inline[0].bytes"},
		{"trace negative bytes", func(s *Spec) {
			s.Clients[0] = Client{ID: "t", Trace: &TraceSource{
				Inline: []FlowStart{{Src: 0, Dst: 1, Bytes: 10}, {Src: 0, Dst: 1, Bytes: -1}},
			}}
		}, "clients[0].trace.inline[1].bytes"},
		{"trace with rate", func(s *Spec) {
			s.Clients[0] = Client{ID: "t", Rate: 5, Trace: &TraceSource{Inline: []FlowStart{{Src: 0, Dst: 1, Bytes: 10}}}}
		}, "clients[0].rate"},
		{"trace out of order", func(s *Spec) {
			s.Clients[0] = Client{ID: "t", Trace: &TraceSource{
				Inline: []FlowStart{{At: 2, Src: 0, Dst: 1, Bytes: 10}, {At: 1, Src: 0, Dst: 1, Bytes: 10}},
			}}
		}, "clients[0].trace.inline[1].at"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validSpec()
			tc.mutate(s)
			err := s.Validate()
			if err == nil {
				t.Fatal("malformed spec accepted")
			}
			if !strings.Contains(err.Error(), tc.wantPath) {
				t.Fatalf("error %q does not name field path %q", err, tc.wantPath)
			}
		})
	}
}

// TestRateBounds pins the arrival rates a spec may give: the mean gap
// 1e9/rate ns must be a positive sim.Time. A one-client Poisson spec at
// 1e-12 flows/s, whose gap overflows, and one at 2e9, whose gap rounds
// to 0, are refused rather than run as floods; the rates at either
// edge of the bound load.
func TestRateBounds(t *testing.T) {
	spec := func(rate string) []byte {
		return []byte(`{"version":"presto-workload/1","name":"slow","clients":[{"id":"mice","rate":` + rate +
			`,"arrival":{"process":"poisson"},"size":{"kind":"fixed","bytes":1000},"select":{"kind":"random"}}]}`)
	}
	for _, rate := range []string{"1e-12", "2e9"} {
		if _, err := Parse(spec(rate)); err == nil || !strings.Contains(err.Error(), "clients[0].rate") {
			t.Errorf("rate %s: err = %v, want one naming clients[0].rate", rate, err)
		}
	}
	for _, rate := range []string{"1.1e-10", "1e9"} {
		if _, err := Parse(spec(rate)); err != nil {
			t.Errorf("rate %s refused: %v", rate, err)
		}
	}
}

// TestParseStrict pins that unknown fields and syntax errors fail
// loudly.
func TestParseStrict(t *testing.T) {
	if _, err := Parse([]byte(`{"version":"presto-workload/1","clients":[],"typo_field":1}`)); err == nil {
		t.Fatal("unknown top-level field accepted")
	}
	if _, err := Parse([]byte(`{not json`)); err == nil {
		t.Fatal("syntax error accepted")
	}
}

// TestParseRefusesRemovedKeys: the grammar holds only what some run
// sets. Arrival processes other than poisson and once, their
// parameters, client windows, spec seeds, rate fractions and trace
// files are refused, each with an error that names it.
func TestParseRefusesRemovedKeys(t *testing.T) {
	client := func(fields string) string {
		return `{"version":"presto-workload/1","clients":[{"id":"c",` + fields + `}]}`
	}
	const poisson = `"rate":100,"size":{"kind":"fixed","bytes":10},"select":{"kind":"random"},`
	for _, tc := range []struct{ name, spec, want string }{
		{"gamma", client(poisson + `"arrival":{"process":"gamma"}`), `"gamma"`},
		{"weibull", client(poisson + `"arrival":{"process":"weibull"}`), `"weibull"`},
		{"onoff", client(poisson + `"arrival":{"process":"onoff"}`), `"onoff"`},
		{"cv", client(poisson + `"arrival":{"process":"poisson","cv":2}`), `"cv"`},
		{"shape", client(poisson + `"arrival":{"process":"poisson","shape":2}`), `"shape"`},
		{"on", client(poisson + `"arrival":{"process":"poisson","on":"1ms"}`), `"on"`},
		{"off", client(poisson + `"arrival":{"process":"poisson","off":"1ms"}`), `"off"`},
		{"start", client(poisson + `"arrival":{"process":"poisson"},"start":"1ms"`), `"start"`},
		{"stop", client(poisson + `"arrival":{"process":"poisson"},"stop":"1ms"`), `"stop"`},
		{"rate_fraction", client(poisson + `"arrival":{"process":"poisson"},"rate_fraction":1`), `"rate_fraction"`},
		{"seed", `{"version":"presto-workload/1","seed":7,"clients":[]}`, `"seed"`},
		{"aggregate_rate", `{"version":"presto-workload/1","aggregate_rate":100,"clients":[]}`, `"aggregate_rate"`},
		{"path", client(`"trace":{"path":"flows.csv"}`), `"path"`},
		{"time_scale", client(`"trace":{"inline":[{"at":"0s","src":0,"dst":1,"bytes":10}],"time_scale":2}`), `"time_scale"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.spec))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Parse = %v, want an error naming %s", err, tc.want)
			}
		})
	}
}

// TestDurationJSON pins the Duration wire forms: strings, integer ns,
// and null.
func TestDurationJSON(t *testing.T) {
	var d Duration
	for _, tc := range []struct {
		in   string
		want int64 // ns
	}{{`"150ms"`, 150e6}, {`"1.5us"`, 1500}, {`2000`, 2000}, {`null`, 0}} {
		d = 0
		if err := json.Unmarshal([]byte(tc.in), &d); err != nil {
			t.Fatalf("%s: %v", tc.in, err)
		}
		if int64(d) != tc.want {
			t.Fatalf("%s parsed to %d ns, want %d", tc.in, int64(d), tc.want)
		}
	}
	out, err := json.Marshal(Duration(150e6))
	if err != nil || string(out) != `"150ms"` {
		t.Fatalf("marshal = %s, %v", out, err)
	}
	if err := json.Unmarshal([]byte(`"nonsense"`), &d); err == nil {
		t.Fatal("bad duration string accepted")
	}
}

// TestPresets pins that every named preset validates, carries its own
// name, and round-trips through the JSON loader unchanged.
func TestPresets(t *testing.T) {
	for _, name := range PresetNames() {
		s, err := Preset(name)
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		if s.Name != name {
			t.Errorf("preset %s has Name %q", name, s.Name)
		}
		back, err := Parse(s.Canonical())
		if err != nil {
			t.Fatalf("preset %s does not round-trip: %v", name, err)
		}
		if back.Hash() != s.Hash() {
			t.Errorf("preset %s hash changed across round-trip", name)
		}
		if !IsPreset(name) {
			t.Errorf("IsPreset(%s) = false", name)
		}
	}
	if _, err := Preset("nope"); err == nil {
		t.Fatal("unknown preset accepted")
	}
	if IsPreset("nope") {
		t.Fatal("IsPreset(nope) = true")
	}
}

// TestHashesPinned freezes the hashes of four presets: a new
// omitempty field must never silently re-key artifacts. mice-heavy was
// re-keyed once, when its rates went from fractions of an aggregate to
// the same rates given directly. The benchmark's own spec files are
// pinned too, since the benchmark records their hashes as provenance.
func TestHashesPinned(t *testing.T) {
	for name, want := range map[string]string{
		"elephants":  "5984c5cc76cc6312",
		"mice-heavy": "e9c242d8ad28bb09",
		"incast32":   "1900a6e43138f4c9",
		"trace":      "8a33650d285fe89d",
		"../../../benchmark/workloads/elephants-mice.json": "5338df448ad0a0c7",
		"../../../benchmark/workloads/mice-churn.json":     "71bda47fc18a16e3",
	} {
		s, err := Resolve(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := s.Hash(); got != want {
			t.Errorf("%s hashes to %s, pinned %s", name, got, want)
		}
	}
}

// TestHashStability pins that the hash depends on content, not
// incidental formatting, and changes when the workload changes.
func TestHashStability(t *testing.T) {
	a := validSpec()
	b := validSpec()
	if a.Hash() != b.Hash() {
		t.Fatal("identical specs hash differently")
	}
	b.Clients[0].Size.Bytes = 2000
	if a.Hash() == b.Hash() {
		t.Fatal("different specs share a hash")
	}
	// Reparsing the canonical form preserves the hash.
	back, err := Parse(a.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	if back.Hash() != a.Hash() {
		t.Fatal("hash not stable across encode/decode")
	}
}

// TestResolve pins preset-name vs file-path resolution and the
// ResolveJSON wire forms.
func TestResolve(t *testing.T) {
	s, err := Resolve("elephants")
	if err != nil || s.Name != "elephants" {
		t.Fatalf("Resolve(elephants) = %v, %v", s, err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "wl.json")
	if err := os.WriteFile(path, validSpec().Canonical(), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = Resolve(path)
	if err != nil || s.Name != "test" {
		t.Fatalf("Resolve(path) = %v, %v", s, err)
	}
	if _, err := Resolve(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}

	// ResolveJSON: quoted string → preset, object → inline spec.
	s, err = ResolveJSON([]byte(`"incast32"`))
	if err != nil || s.Name != "incast32" {
		t.Fatalf("ResolveJSON(preset) = %v, %v", s, err)
	}
	s, err = ResolveJSON(validSpec().Canonical())
	if err != nil || s.Name != "test" {
		t.Fatalf("ResolveJSON(inline) = %v, %v", s, err)
	}
	if _, err := ResolveJSON([]byte(`  `)); err == nil {
		t.Fatal("empty workload accepted")
	}
	if _, err := ResolveJSON([]byte(`42`)); err == nil {
		t.Fatal("numeric workload accepted")
	}
}

// TestNeedsRemotes pins remote detection for front-end topology setup.
func TestNeedsRemotes(t *testing.T) {
	s := validSpec()
	if s.NeedsRemotes() {
		t.Fatal("random workload claims to need remotes")
	}
	s.Clients[0].Select = Select{Kind: SelNorthSouth}
	if !s.NeedsRemotes() {
		t.Fatal("northsouth workload does not need remotes")
	}
}

// FuzzWorkloadSpec feeds Parse any bytes: it must refuse them, or give
// a spec whose canonical form parses back to the same hash and that
// either Compile refuses on the 16-host testbed or runs for 200 µs
// there (remote users attached when the spec needs them). Nothing may
// panic. The corpus under testdata/fuzz/FuzzWorkloadSpec holds every
// preset, the benchmark's workload files and a stride near the int
// range.
func FuzzWorkloadSpec(f *testing.F) {
	ts, err := topo.ParseSpec("clos")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ws, err := Parse(data)
		if err != nil {
			return
		}
		back, err := Parse(ws.Canonical())
		if err != nil || back.Hash() != ws.Hash() {
			t.Fatalf("canonical form %s parses to %v, %v", ws.Canonical(), back, err)
		}
		tp := ts.Build()
		if ws.NeedsRemotes() {
			for _, s := range tp.Spines {
				tp.AddSpineHost(s, 100e6, 5*sim.Microsecond)
			}
		}
		c := cluster.New(cluster.Config{Topology: tp, Scheme: cluster.Presto, Seed: 1})
		g, err := Compile(ws, c, 1)
		if err != nil {
			return
		}
		g.Start(200 * sim.Microsecond)
		c.Run(200 * sim.Microsecond)
	})
}
