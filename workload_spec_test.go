package presto

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"presto/internal/campaign"
	"presto/internal/sim"
	wspec "presto/internal/workload/spec"
)

// specCampaign builds a one-system campaign of the named preset with
// the given worker count — the spec-workload analogue of fig5Spec.
func specCampaign(t *testing.T, name string, parallelism, seeds int) *campaign.Spec {
	t.Helper()
	spec, err := Campaign(campaign.Request{
		Workload:    json.RawMessage(`"` + name + `"`),
		Scheme:      "presto",
		Seeds:       seeds,
		Parallelism: parallelism,
		Duration:    wspec.Duration(10 * sim.Millisecond),
		Warmup:      wspec.Duration(5 * sim.Millisecond),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecWorkloadDeterministicAcrossParallelism is the workload-spec
// determinism invariant: the same spec + seed must produce
// byte-identical campaign artifacts at -parallel 1 and -parallel 8,
// because every random draw comes from per-client streams derived from
// the run seed, never from scheduling. mice-heavy covers the rate-based
// clients; random and shuffle cover once+random pairs, request/response
// mice and the closed-loop shuffle.
func TestSpecWorkloadDeterministicAcrossParallelism(t *testing.T) {
	for _, name := range []string{"mice-heavy", "random", "shuffle"} {
		t.Run(name, func(t *testing.T) { parallelismInvariant(t, name) })
	}
}

func parallelismInvariant(t *testing.T, name string) {
	artifacts := func(parallelism int) (string, string) {
		report, err := campaign.Run(specCampaign(t, name, parallelism, 2))
		if err != nil {
			t.Fatal(err)
		}
		var j, c bytes.Buffer
		if err := report.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := report.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String()
	}
	j1, c1 := artifacts(1)
	j8, c8 := artifacts(8)
	if j1 != j8 {
		t.Error("report JSON differs between -parallel 1 and -parallel 8")
	}
	if c1 != c8 {
		t.Error("report CSV differs between -parallel 1 and -parallel 8")
	}
}

// TestSpecWorkloadHashInArtifacts checks the manifest/report carry the
// workload hash: cells record it and the manifest lists it, so cached
// or archived artifacts key on the exact workload definition.
func TestSpecWorkloadHashInArtifacts(t *testing.T) {
	spec := specCampaign(t, "mice-heavy", 2, 1)
	report, err := campaign.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := wspec.Preset("mice-heavy")
	if err != nil {
		t.Fatal(err)
	}
	want := ws.Hash()
	if len(report.Cells) == 0 || report.Cells[0].Workload != want {
		t.Errorf("cell workload hash = %q, want %q", report.Cells[0].Workload, want)
	}
	m := report.Manifest("")
	if len(m.Workloads) != 1 || m.Workloads[0] != want {
		t.Errorf("manifest workloads = %v, want [%s]", m.Workloads, want)
	}
}

// TestRunSpecWorkloadNorthSouth covers the remote-user topology path
// end to end through the facade: a north-south client compiles and
// moves traffic on the spine-attached 100 Mbps hosts.
func TestRunSpecWorkloadNorthSouth(t *testing.T) {
	ws := &wspec.Spec{
		Version: wspec.Version,
		Name:    "ns-test",
		Clients: []wspec.Client{{
			ID:      "ns",
			Rate:    500,
			Arrival: wspec.Arrival{Process: wspec.ProcPoisson},
			Size:    wspec.SizeDist{Kind: wspec.SizeFixed, Bytes: 20000},
			Select:  wspec.Select{Kind: wspec.SelNorthSouth},
		}},
	}
	clients := runCell(t, specCell(paper("presto"), ws), Options{
		Seed:     1,
		Duration: 10 * sim.Millisecond,
		Warmup:   2 * sim.Millisecond,
	}).Clients
	if len(clients) != 1 || clients[0].Finished == 0 {
		t.Fatalf("north-south client finished no flows: %+v", clients)
	}
}

// TestEverySpecKeyRuns keeps the workload grammar to the traffic some
// run sends: every JSON key of presto-workload/1, and every arrival
// process, size kind and selection kind, must be set by a spec that a
// run uses — a preset, the workload of a cell of `-run all`, or a
// benchmark workload file.
func TestEverySpecKeyRuns(t *testing.T) {
	var used []*wspec.Spec
	for _, name := range wspec.PresetNames() {
		used = append(used, preset(name))
	}
	for _, c := range tableCells(t) {
		used = append(used, c.Workload)
	}
	files, err := filepath.Glob("benchmark/workloads/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("benchmark workloads: %v, %v", files, err)
	}
	for _, f := range files {
		ws, err := wspec.Load(f)
		if err != nil {
			t.Fatal(err)
		}
		used = append(used, ws)
	}

	// set holds every key path a used spec sets, and every value each
	// kind-like path takes ("clients.size.kind=fixed").
	set := map[string]bool{}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, child := range v {
				set[path+k] = true
				walk(path+k+".", child)
			}
		case []any:
			for _, child := range v {
				walk(path, child)
			}
		case string:
			set[strings.TrimSuffix(path, ".")+"="+v] = true
		}
	}
	for _, ws := range used {
		var v any
		if err := json.Unmarshal(ws.Canonical(), &v); err != nil {
			t.Fatal(err)
		}
		walk("", v)
	}

	var keys func(path string, typ reflect.Type)
	keys = func(path string, typ reflect.Type) {
		for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice {
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct {
			return
		}
		for i := 0; i < typ.NumField(); i++ {
			name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			if !set[path+name] {
				t.Errorf("key %s is set by no spec a run uses", path+name)
			}
			keys(path+name+".", typ.Field(i).Type)
		}
	}
	keys("", reflect.TypeOf(wspec.Spec{}))

	// The kinds are the spec package's Proc*, Size* and Sel* constants.
	kinds := map[string]string{
		"Proc": "clients.arrival.process",
		"Size": "clients.size.kind",
		"Sel":  "clients.select.kind",
	}
	file, err := parser.ParseFile(token.NewFileSet(), "internal/workload/spec/spec.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, decl := range file.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.CONST {
			continue
		}
		for _, s := range gen.Specs {
			vs := s.(*ast.ValueSpec)
			for i, id := range vs.Names {
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					continue
				}
				for prefix, path := range kinds {
					if strings.HasPrefix(id.Name, prefix) {
						n++
						if v, _ := strconv.Unquote(lit.Value); !set[path+"="+v] {
							t.Errorf("%s %s (%s) is set by no spec a run uses", path, v, id.Name)
						}
					}
				}
			}
		}
	}
	if n == 0 {
		t.Fatal("found no Proc*, Size* or Sel* constants in the spec package")
	}
}
