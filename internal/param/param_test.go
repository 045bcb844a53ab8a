package param

import (
	"strings"
	"testing"

	"presto/internal/sim"
)

func TestParseBytes(t *testing.T) {
	cases := map[string]int{
		"65536": 65536, "64KB": 64 << 10, "64kb": 64 << 10,
		"1MB": 1 << 20, "2GB": 2 << 30, "128B": 128, " 16KB ": 16 << 10,
	}
	for in, want := range cases {
		got, err := ParseBytes(in)
		if err != nil || got != want {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	// The last two overflow an int by way of their unit.
	for _, bad := range []string{"", "KB", "12.5KB", "x", "17179869185GB", "-17179869185GB"} {
		if _, err := ParseBytes(bad); err == nil {
			t.Errorf("ParseBytes(%q) accepted", bad)
		}
	}
}

// schema has one param of every kind.
var schema = []Param{
	{Name: "cell", Kind: KindBytes, Default: "64KB", Min: 1024, Max: 1 << 20},
	{Name: "gap", Kind: KindDuration, Default: "500us", Min: 1000},
	{Name: "frac", Kind: KindFloat, Default: "0.25", Min: 0.01, Max: 1},
	{Name: "n", Kind: KindInt, Default: "8", Min: 1, Max: 64},
	{Name: "mode", Kind: KindEnum, Default: "fast", Values: []string{"fast", "slow"}},
}

func TestResolveDefaultsAndBounds(t *testing.T) {
	r, err := Resolve("t", schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bytes("cell") != 64<<10 || r.Duration("gap") != 500*sim.Microsecond ||
		r.Float("frac") != 0.25 || r.Int("n") != 8 || r.Enum("mode") != "fast" {
		t.Errorf("defaults wrong: %v %v %v %v %v", r.Bytes("cell"), r.Duration("gap"), r.Float("frac"), r.Int("n"), r.Enum("mode"))
	}
	r, err = Resolve("t", schema, map[string]string{"cell": "16KB", "n": "2", "mode": "slow"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Bytes("cell") != 16<<10 || r.Int("n") != 2 || r.Enum("mode") != "slow" {
		t.Error("overrides not applied")
	}
	for _, bad := range []map[string]string{
		{"cell": "512"},  // below min
		{"n": "65"},      // above max
		{"frac": "NaN"},  // not a number
		{"mode": "Fast"}, // not a listed name
	} {
		if _, err := Resolve("t", schema, bad); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
	// Unknown key.
	if _, err := Resolve("t", schema, map[string]string{"nope": "1"}); err == nil {
		t.Error("unknown key accepted")
	} else if !strings.Contains(err.Error(), "nope") {
		t.Errorf("unknown-key error does not name the key: %v", err)
	}
}

func TestCanonical(t *testing.T) {
	if got := Canonical("diffflow", map[string]string{"threshold": "512KB", "cell": "32KB"}); got != "diffflow:cell=32KB,threshold=512KB" {
		t.Errorf("Canonical = %q", got)
	}
	if Canonical("ecmp", nil) != "ecmp" {
		t.Error("Canonical without params should be the bare name")
	}
}

// TestEnum: an enum refuses a name it does not list with an error
// naming the key and the names, Normal drops its default, and what
// Normal renders parses back to itself.
func TestEnum(t *testing.T) {
	registry := map[string][]Param{"t": schema}
	lookup := func(spec string) (string, error) {
		name, _, r, err := Lookup("test", spec, registry, func(s []Param) []Param { return s })
		if err != nil {
			return "", err
		}
		return Normal(name, schema, r), nil
	}
	_, err := lookup("t:mode=medium")
	if err == nil || !strings.Contains(err.Error(), "param mode") || !strings.Contains(err.Error(), "fast|slow") {
		t.Errorf("t:mode=medium: %v, want an error naming mode and fast|slow", err)
	}
	for spec, want := range map[string]string{
		"t:mode=fast":               "t",
		"t:mode=slow":               "t:mode=slow",
		"t:mode=slow,cell=65536":    "t:mode=slow",
		"t:gap=1234567ns,mode=fast": "t:gap=1.234567ms",
		"t:gap=100us":               "t:gap=100us",
		"t:frac=0.50":               "t:frac=0.5",
	} {
		got, err := lookup(spec)
		if err != nil || got != want {
			t.Errorf("Normal(%q) = %q, %v; want %q", spec, got, err, want)
			continue
		}
		if again, err := lookup(got); err != nil || again != got {
			t.Errorf("Normal(%q) = %q, which renders %q, %v", spec, got, again, err)
		}
	}
}
