package topo

import (
	"reflect"
	"strings"
	"testing"
)

// TestSpecCanonical pins the one rendering of each fabric: defaults
// drop out, keys sort, and byte counts take their largest unit.
func TestSpecCanonical(t *testing.T) {
	for in, want := range map[string]string{
		"clos3":                          "clos3",
		"clos3:pods=4":                   "clos3",
		"clos3:hpl=2,pods=4":             "clos3",
		" clos3 : pods = 25 , hpl = 20 ": "clos3:hpl=20,pods=25",
		"clos:spines=8,leaves=2,hpl=8":   "clos:hpl=8,leaves=2,spines=8",
		"clos:queue=2048KB":              "clos",
		"clos:queue=8388608":             "clos:queue=8MB",
		"clos:ecn=204800":                "clos:ecn=200KB",
		"clos:queue=1500":                "clos:queue=1500",
		"mesh":                           "mesh",
		"single:hosts=3":                 "single:hosts=3",
	} {
		s, err := ParseSpec(in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", in, err)
			continue
		}
		if got := s.String(); got != want {
			t.Errorf("ParseSpec(%q).String() = %q, want %q", in, got, want)
		}
	}
}

// TestSpecRefusals checks every bad spec is an error naming the
// offending key or name, never a constructor panic.
func TestSpecRefusals(t *testing.T) {
	for spec, names := range map[string]string{
		"mesh:leaves=1":    "unknown param(s) leaves",
		"clos3:pods=0":     "param pods",
		"clos:spines=two":  "param spines",
		"clos:gamma=2":     "unknown param(s) gamma",
		"clos3:aggs=3":     "unknown param(s) aggs",
		"clos3:queue=1MB":  "unknown param(s) queue",
		"single:hosts=0":   "param hosts",
		"single:hosts=17":  "param hosts",
		"clos:spines=9":    "param spines",
		"clos3:hpl=21":     "param hpl",
		"clos:queue=100":   "param queue",
		"clos:ecn=-1":      "param ecn",
		"clos:hpl":         `bad param "hpl"`,
		"clos:pods=2":      "unknown param(s) pods",
		"torus":            `unknown topology "torus"`,
		"":                 `unknown topology ""`,
		"clos3:pods=26":    "param pods",
		"clos:queue=2TB":   "param queue",
		"mesh:leaves=4,=1": `bad param "=1"`,
	} {
		_, err := ParseSpec(spec)
		if err == nil || !strings.Contains(err.Error(), names) {
			t.Errorf("ParseSpec(%q) = %v, want an error naming %s", spec, err, names)
		}
	}
}

// TestSpecBuildsTheConstructorsFabric checks each shape builds what
// its constructor builds from the same arguments, with the switch
// settings beside it.
func TestSpecBuildsTheConstructorsFabric(t *testing.T) {
	for spec, want := range map[string]*Topology{
		"clos":                         TwoTierClos(4, 4, 4, 1, LinkConfig{}),
		"clos:spines=8,leaves=2,hpl=3": TwoTierClos(8, 2, 3, 1, LinkConfig{}),
		"clos3":                        ThreeTierClos(4, 2, 2, 2, LinkConfig{}),
		"clos3:hpl=3,pods=5":           ThreeTierClos(5, 2, 2, 3, LinkConfig{}),
		"mesh":                         LeafMesh(4, 4, LinkConfig{}),
		"single:hosts=5":               SingleSwitch(5, LinkConfig{}),
	} {
		s, err := ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Build(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s builds a different fabric from its constructor", spec)
		}
	}
	s, err := ParseSpec("clos:queue=256KB,ecn=64KB")
	if err != nil {
		t.Fatal(err)
	}
	if queue, ecn := s.Switch(); queue != 256<<10 || ecn != 64<<10 {
		t.Errorf("switch settings %d, %d; want %d, %d", queue, ecn, 256<<10, 64<<10)
	}
	for _, spec := range []string{"clos", "clos3", "mesh", "single"} {
		s, _ = ParseSpec(spec)
		if queue, ecn := s.Switch(); queue != DefaultSwitchQueueBytes || ecn != 0 {
			t.Errorf("%s: switch settings %d, %d; want the default buffer and no marking", spec, queue, ecn)
		}
	}
}
