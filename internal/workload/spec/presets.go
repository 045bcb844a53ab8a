package spec

import (
	"embed"
	"sort"
	"strings"
)

// Named presets make common workloads resolvable without a file,
// kube-burner-style: every front-end accepts a preset name anywhere it
// accepts a spec path. Each preset is an ordinary spec file under
// presets/, which is also the path to hand a front-end or copy as
// the start of a new spec:
//
//	elephants    one unlimited flow per server to the server half the
//	             fabric away — the throughput / fairness baseline
//	mice-heavy   90% web-like mice + 10% Pareto elephants, random pairs
//	incast32     32-way partition-aggregate bursts of 64 KB shards
//	trace        a tiny looped inline trace showing the replay format
//	stride, random, bijection
//	             §4's synthetic patterns: one elephant per server by the
//	             named selection, plus 50 KB request / 100 B response
//	             mice (3200 flows/s: one per server pair every 5 ms)
//	shuffle      §4's Hadoop shuffle: 8 MB to every other server, two
//	             transfers in flight per server, plus stride mice
//	trace-mix    Table 1: heavy-tailed sizes (log-normal body, Pareto
//	             tail, ×10 scaling) between random cross-pod pairs
//	north-south  Table 2: stride elephants and mice under web-like
//	             flows from every server to the remote users
//	podtraffic   one elephant per server to the same position one pod
//	             over on the default pod topology (2 hosts per leaf)
//
//go:embed presets/*.json
var presetFS embed.FS

// PresetNames lists the named presets, sorted.
func PresetNames() []string {
	entries, err := presetFS.ReadDir("presets")
	if err != nil {
		panic("spec: embedded presets: " + err.Error())
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = strings.TrimSuffix(e.Name(), ".json")
	}
	sort.Strings(names)
	return names
}

// IsPreset reports whether name is a known preset.
func IsPreset(name string) bool {
	_, err := presetFS.Open("presets/" + name + ".json")
	return err == nil
}

// Preset returns a fresh copy of the named preset spec.
func Preset(name string) (*Spec, error) {
	data, err := presetFS.ReadFile("presets/" + name + ".json")
	if err != nil {
		return nil, badField("preset", "unknown preset %q (have %v)", name, PresetNames())
	}
	s, err := Parse(data)
	if err != nil {
		// Presets ship with the binary; an invalid one is a programming error.
		panic("spec: invalid preset " + name + ": " + err.Error())
	}
	return s, nil
}
