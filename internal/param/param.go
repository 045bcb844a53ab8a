// Package param is the repository's one `name:k=v,k=v` grammar: a spec
// names a registry entry and sets typed, bounded values of its schema.
// Schemes (internal/scheme) and fabrics (internal/topo) both parse
// with it, so a bad value is one error everywhere, naming the key.
package param

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"presto/internal/sim"
)

// Kind types a parameter.
type Kind int

// The kinds: a byte count (a plain integer, or KB/MB/GB binary
// multiples: 64KB = 65536), a simulated duration in Go syntax
// ("500us"), a floating-point value, a plain integer, and one of a
// listed set of names.
const (
	KindBytes Kind = iota
	KindDuration
	KindFloat
	KindInt
	KindEnum
)

// Param is one schema entry: name, type, default, and bounds.
type Param struct {
	Name    string
	Kind    Kind
	Default string
	// Min and Max bound the parsed numeric value (nanoseconds for
	// durations); zero leaves that side unbounded, except that a byte
	// count is never negative.
	Min, Max float64
	// Values are an enum's allowed names.
	Values []string
}

// Parse converts a raw value to the param's native representation
// (int, sim.Time, float64 or an enum's string), enforcing bounds.
func (p Param) Parse(raw string) (any, error) {
	var v any
	var n float64
	var err error
	switch p.Kind {
	case KindEnum:
		if !slices.Contains(p.Values, raw) {
			return nil, fmt.Errorf("value %q is not one of %s", raw, strings.Join(p.Values, "|"))
		}
		return raw, nil
	case KindBytes:
		var b int
		b, err = ParseBytes(raw)
		v, n = b, float64(b)
	case KindDuration:
		var d time.Duration
		d, err = time.ParseDuration(raw)
		v, n = sim.FromDuration(d), float64(sim.FromDuration(d))
	case KindFloat:
		n, err = strconv.ParseFloat(raw, 64)
		v = n
	case KindInt:
		var i int
		i, err = strconv.Atoi(raw)
		v, n = i, float64(i)
	default:
		err = fmt.Errorf("unknown param kind %d", p.Kind)
	}
	if err != nil {
		return nil, err
	}
	if math.IsNaN(n) || (p.Min != 0 && n < p.Min) || (p.Max != 0 && n > p.Max) || (p.Kind == KindBytes && n < 0) {
		return nil, fmt.Errorf("value %s out of range [%g, %g]", raw, p.Min, p.Max)
	}
	return v, nil
}

// format renders a value Parse returned in its one spelling, which
// Parse reads back to the same value: byte counts in the largest
// binary unit that divides them, durations exactly (time.Duration's
// spelling, "us" for "µs").
func (p Param) format(v any) string {
	if d, ok := v.(sim.Time); ok {
		return strings.Replace(d.AsDuration().String(), "µs", "us", 1)
	}
	if b, ok := v.(int); ok && p.Kind == KindBytes && b != 0 {
		for i, unit := range []string{"GB", "MB", "KB"} {
			if size := 1 << (30 - 10*i); b%size == 0 {
				return strconv.Itoa(b/size) + unit
			}
		}
	}
	return fmt.Sprint(v)
}

// ParseBytes parses "65536", "64KB", "1MB", "2GB" (binary multiples).
func ParseBytes(s string) (int, error) {
	t := strings.TrimSpace(s)
	mult := 1
	upper := strings.ToUpper(t)
	switch {
	case strings.HasSuffix(upper, "KB"):
		mult, t = 1<<10, t[:len(t)-2]
	case strings.HasSuffix(upper, "MB"):
		mult, t = 1<<20, t[:len(t)-2]
	case strings.HasSuffix(upper, "GB"):
		mult, t = 1<<30, t[:len(t)-2]
	case strings.HasSuffix(upper, "B"):
		t = t[:len(t)-1]
	}
	n, err := strconv.Atoi(strings.TrimSpace(t))
	if err != nil || n > math.MaxInt/mult || n < math.MinInt/mult {
		return 0, fmt.Errorf("bad byte count %q", s)
	}
	return n * mult, nil
}

// Resolved is a validated, fully-defaulted parameter set.
type Resolved struct {
	vals map[string]any
}

// Bytes, Duration, Float, Int and Enum return the value of a param of
// that kind.
func (r Resolved) Bytes(name string) int         { return r.vals[name].(int) }
func (r Resolved) Duration(name string) sim.Time { return r.vals[name].(sim.Time) }
func (r Resolved) Float(name string) float64     { return r.vals[name].(float64) }
func (r Resolved) Int(name string) int           { return r.vals[name].(int) }
func (r Resolved) Enum(name string) string       { return r.vals[name].(string) }

// Resolve validates raw values against schema and fills defaults;
// entry names the spec's registry entry in errors ("scheme presto").
func Resolve(entry string, schema []Param, values map[string]string) (Resolved, error) {
	r := Resolved{vals: make(map[string]any, len(schema))}
	names := make([]string, len(schema))
	for i, p := range schema {
		names[i] = p.Name
		raw, ok := values[p.Name]
		if !ok {
			raw = p.Default
		}
		v, err := p.Parse(raw)
		if err != nil {
			return Resolved{}, fmt.Errorf("%s: param %s: %w", entry, p.Name, err)
		}
		r.vals[p.Name] = v
	}
	// Reject unknown keys (sorted for a deterministic message).
	var unknown []string
	for _, k := range Keys(values) {
		if _, ok := r.vals[k]; !ok {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		known := "(none)"
		if len(names) > 0 {
			known = strings.Join(names, ", ")
		}
		return Resolved{}, fmt.Errorf("%s: unknown param(s) %s (schema: %s)", entry, strings.Join(unknown, ", "), known)
	}
	return r, nil
}

// Lookup parses a "name" or "name:k=v,k=v" spec against a registry
// of kind ("scheme"): the entry's name, the raw values (nil when there
// are none) and the values resolved against the entry's schema.
func Lookup[E any](kind, spec string, registry map[string]E, schema func(E) []Param) (name string, vals map[string]string, r Resolved, err error) {
	name, rest, _ := strings.Cut(spec, ":")
	name = strings.TrimSpace(name)
	e, ok := registry[name]
	if !ok {
		return "", nil, Resolved{}, fmt.Errorf("unknown %s %q (known: %s)", kind, name, strings.Join(Keys(registry), ", "))
	}
	if rest != "" {
		vals = make(map[string]string)
	}
	for _, kv := range strings.Split(rest, ",") {
		if kv = strings.TrimSpace(kv); kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok || k == "" {
			return "", nil, Resolved{}, fmt.Errorf("%s %s: bad param %q (want k=v)", kind, name, kv)
		}
		vals[strings.TrimSpace(k)] = strings.TrimSpace(v)
	}
	if r, err = Resolve(kind+" "+name, schema(e), vals); err != nil {
		return "", nil, Resolved{}, err
	}
	return name, vals, r, nil
}

// Canonical renders a (name, params) pair back into a spec string:
// params in sorted key order, so equal configurations produce
// byte-equal strings (cell IDs, hashes).
func Canonical(name string, params map[string]string) string {
	if len(params) == 0 {
		return name
	}
	parts := Keys(params)
	for i, k := range parts {
		parts[i] = k + "=" + params[k]
	}
	return name + ":" + strings.Join(parts, ",")
}

// Normal renders resolved values as the shortest Canonical spec: only
// the values that differ from their defaults, each in its one
// spelling, so every spelling of one configuration renders the same.
func Normal(name string, schema []Param, r Resolved) string {
	set := map[string]string{}
	for _, p := range schema {
		if def, _ := p.Parse(p.Default); r.vals[p.Name] != def {
			set[p.Name] = p.format(r.vals[p.Name])
		}
	}
	return Canonical(name, set)
}

// Keys returns a registry's names, sorted.
func Keys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
