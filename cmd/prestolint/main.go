// Command prestolint is the repository's custom vet tool: it runs the
// internal/analysis suite (errdrop, hotalloc, lockorder, maporder,
// niltracer, simclock, simtime) over packages handed to it by the go
// command. Invoke it through go vet so the build system
// supplies type information:
//
//	go build -o /tmp/prestolint ./cmd/prestolint
//	go vet -vettool=/tmp/prestolint ./...
//
// It speaks the same driver protocol as
// golang.org/x/tools/go/analysis/unitchecker — the -V=full and -flags
// handshakes plus a JSON vet.cfg per package — but is implemented
// entirely on the standard library (go/parser, go/types, go/importer)
// so it builds offline with no module downloads.
//
// Additional modes:
//
//	prestolint -suppressions [dir ...]
//	    list every //prestolint:allow annotation under the given
//	    directories (default .), sorted, so suppressions stay
//	    auditable; testdata subtrees (analyzer fixtures) are skipped
//	    unless named explicitly. Any annotation missing its
//	    "-- reason" tail fails the run with exit status 2.
//	prestolint -suppressions -budget lint_budget.json [dir ...]
//	    additionally enforce the per-analyzer suppression budget:
//	    if any analyzer has more //prestolint:allow annotations than
//	    the budget grants it, exit 2. This is the CI gate that makes
//	    growing the exception list a reviewed decision.
//	go vet -vettool=prestolint -json ./...
//	    emit diagnostics as one compact JSON object per package on
//	    stdout ({"pkg": {"analyzer": [{posn, end, message}]}}) and
//	    exit 0 even when diagnostics exist, so CI can archive the
//	    full finding set as an artifact while a separate non-JSON
//	    run gates the build.
//	prestolint -list
//	    print the analyzer names and documentation
//
// Diagnostics go to stderr as "file:line:col: [analyzer] message",
// sorted by position; the exit status is 2 when any diagnostic is
// reported, 1 on operational errors, 0 otherwise.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"presto/internal/analysis"
	"presto/internal/analysis/suite"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("prestolint: ")

	versionFlag := flag.String("V", "", "print version information (go vet handshake; only -V=full is supported)")
	flagsFlag := flag.Bool("flags", false, "print the tool's analyzer flags as JSON (go vet handshake)")
	suppressionsFlag := flag.Bool("suppressions", false, "list //prestolint:allow annotations under the given directories")
	budgetFlag := flag.String("budget", "", "with -suppressions: enforce the per-analyzer allow budget in this JSON file")
	jsonFlag := flag.Bool("json", false, "emit diagnostics as JSON on stdout and exit 0 (go vet forwards this)")
	listFlag := flag.Bool("list", false, "print the analyzer suite and exit")
	flag.Parse()

	switch {
	case *versionFlag != "":
		if *versionFlag != "full" {
			log.Fatalf("unsupported flag -V=%s", *versionFlag)
		}
		printVersion()
	case *flagsFlag:
		// The handshake declares the flags go vet may forward to the
		// tool; everything else is rejected by the go command.
		fmt.Println(`[{"Name":"json","Bool":true,"Usage":"emit diagnostics as JSON on stdout and exit 0"}]`)
	case *listFlag:
		for _, az := range suite.Analyzers() {
			fmt.Printf("%s: %s\n", az.Name, az.Doc)
		}
	case *suppressionsFlag:
		dirs := flag.Args()
		if len(dirs) == 0 {
			dirs = []string{"."}
		}
		ok, err := listSuppressions(dirs, *budgetFlag)
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			os.Exit(2)
		}
	case flag.NArg() == 1 && strings.HasSuffix(flag.Arg(0), ".cfg"):
		runVet(flag.Arg(0), *jsonFlag)
	default:
		log.Fatalf("usage: go vet -vettool=$(which prestolint) [-json] ./... | prestolint -suppressions [-budget lint_budget.json] [dir ...] | prestolint -list")
	}
}

// printVersion implements the go command's -V=full tool-identity
// handshake: the output must be "<name> version devel ... buildID=<id>"
// so the content hash of the binary keys go vet's action cache.
func printVersion() {
	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Open(exe)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close() //prestolint:allow errdrop -- binary opened read-only for hashing; close cannot lose data
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s version devel buildID=%x\n", exe, h.Sum(nil))
}

// vetConfig mirrors the JSON configuration cmd/go writes for each
// package it asks a vet tool to check.
type vetConfig struct {
	ID           string
	Compiler     string
	Dir          string
	ImportPath   string
	GoFiles      []string
	NonGoFiles   []string
	IgnoredFiles []string

	ModulePath    string
	ModuleVersion string
	ImportMap     map[string]string
	PackageFile   map[string]string
	Standard      map[string]bool
	PackageVetx   map[string]string
	VetxOnly      bool
	VetxOutput    string
	GoVersion     string

	SucceedOnTypecheckFailure bool
}

func runVet(cfgFile string, asJSON bool) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		log.Fatal(err)
	}
	cfg := new(vetConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		log.Fatalf("parsing %s: %v", cfgFile, err)
	}

	// The suite exports no cross-package facts, so dependency passes
	// (VetxOnly) have nothing to compute: record the empty fact set so
	// go vet can cache the result and move on.
	writeVetx := func() {
		if cfg.VetxOutput != "" {
			if err := os.WriteFile(cfg.VetxOutput, []byte("prestolint: no facts\n"), 0o666); err != nil {
				log.Fatal(err)
			}
		}
	}
	if cfg.VetxOnly {
		writeVetx()
		return
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				writeVetx()
				return
			}
			log.Fatal(err)
		}
		files = append(files, f)
	}

	info := analysis.NewTypesInfo()
	var typeErr error
	conf := types.Config{
		Importer:  newVetImporter(fset, cfg),
		GoVersion: cfg.GoVersion,
		Error: func(err error) {
			if typeErr == nil {
				typeErr = err
			}
		},
	}
	tpkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if typeErr == nil {
		typeErr = err
	}
	if typeErr != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeVetx()
			return
		}
		log.Fatalf("type-checking %s: %v", cfg.ImportPath, typeErr)
	}

	pkg := &analysis.Package{
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		ImportPath: cfg.ImportPath,
	}
	diags, err := analysis.RunAnalyzers(pkg, suite.Analyzers())
	if err != nil {
		log.Fatal(err)
	}
	writeVetx()
	if asJSON {
		emitJSON(fset, cfg.ImportPath, diags)
		return // JSON mode never fails the build; CI archives, a plain run gates
	}
	if len(diags) > 0 {
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
		}
		os.Exit(2)
	}
}

// jsonDiagnostic is one finding in -json output, shaped like the
// unitchecker JSON protocol so existing vet-output tooling parses it.
type jsonDiagnostic struct {
	Posn    string `json:"posn"`
	End     string `json:"end,omitempty"`
	Message string `json:"message"`
}

// emitJSON prints the package's diagnostics as a single compact JSON
// object on stdout: {"importpath": {"analyzer": [{posn, end, message}]}}.
// One line per package makes the aggregate CI artifact NDJSON.
func emitJSON(fset *token.FileSet, importPath string, diags []analysis.Diagnostic) {
	byAnalyzer := make(map[string][]jsonDiagnostic)
	for _, d := range diags {
		jd := jsonDiagnostic{
			Posn:    fset.Position(d.Pos).String(),
			Message: d.Message,
		}
		if d.End.IsValid() {
			jd.End = fset.Position(d.End).String()
		}
		byAnalyzer[d.Analyzer] = append(byAnalyzer[d.Analyzer], jd)
	}
	out := map[string]map[string][]jsonDiagnostic{importPath: byAnalyzer}
	data, err := json.Marshal(out)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n", data)
}

// vetImporter resolves imports from the export-data files listed in
// the vet config, using the compiler importer from the standard
// library.
type vetImporter struct {
	cfg  *vetConfig
	base types.Importer
}

func newVetImporter(fset *token.FileSet, cfg *vetConfig) *vetImporter {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q in vet config", path)
		}
		return os.Open(file)
	}
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	return &vetImporter{cfg: cfg, base: importer.ForCompiler(fset, compiler, lookup)}
}

func (v *vetImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if mapped, ok := v.cfg.ImportMap[path]; ok {
		path = mapped
	}
	return v.base.Import(path)
}

// lintBudget mirrors lint_budget.json: the number of
// //prestolint:allow annotations each analyzer is granted. Analyzers
// absent from the map have a budget of zero.
type lintBudget struct {
	Comment string         `json:"_comment"`
	Budget  map[string]int `json:"budget"`
}

// listSuppressions prints every //prestolint:allow annotation found
// under dirs, sorted by file and line, so the exception list stays
// reviewable. Purely syntactic: no type information needed. testdata
// subtrees are skipped during the walk (analyzer fixtures suppress
// findings on purpose) unless a testdata path is named explicitly.
//
// The boolean result is the gate: false when any annotation is missing
// its "-- reason" tail, or — when budgetPath is non-empty — when an
// analyzer's suppression count exceeds its budget.
func listSuppressions(dirs []string, budgetPath string) (bool, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				switch d.Name() {
				case ".git", "vendor":
					return filepath.SkipDir
				case "testdata":
					if path != dir {
						return filepath.SkipDir
					}
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return err
			}
			files = append(files, f)
			return nil
		})
		if err != nil {
			return false, err
		}
	}
	sups := analysis.CollectSuppressions(fset, files)
	sort.Slice(sups, func(i, j int) bool {
		if sups[i].File != sups[j].File {
			return sups[i].File < sups[j].File
		}
		return sups[i].Line < sups[j].Line
	})
	ok := true
	for _, s := range sups {
		reason := s.Reason
		if reason == "" {
			reason = "(no reason given)"
		}
		fmt.Printf("%s:%d: allow %s -- %s\n", s.File, s.Line, strings.Join(s.Names, ","), reason)
	}
	fmt.Printf("%d suppression(s)\n", len(sups))
	for _, s := range sups {
		if s.Reason == "" {
			fmt.Printf("%s:%d: //prestolint:allow without a '-- reason' tail\n", s.File, s.Line)
			ok = false
		}
	}
	if budgetPath != "" {
		budgetOK, err := checkBudget(budgetPath, sups)
		if err != nil {
			return false, err
		}
		ok = ok && budgetOK
	}
	return ok, nil
}

// checkBudget counts suppressions per canonical analyzer name and
// compares against the budget file. A multi-analyzer allow counts once
// toward each named analyzer.
func checkBudget(path string, sups []analysis.Suppression) (bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	var budget lintBudget
	if err := json.Unmarshal(data, &budget); err != nil {
		return false, fmt.Errorf("parsing %s: %v", path, err)
	}

	canonical := make(map[string]string)
	for _, az := range suite.Analyzers() {
		canonical[az.Name] = az.Name
		for _, alias := range az.Aliases {
			canonical[alias] = az.Name
		}
	}
	counts := make(map[string]int)
	for _, s := range sups {
		for _, name := range s.Names {
			if c, ok := canonical[name]; ok {
				name = c
			}
			counts[name]++
		}
	}

	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	ok := true
	for _, name := range names {
		allowed := budget.Budget[name]
		if counts[name] > allowed {
			fmt.Printf("budget exceeded: %s has %d suppression(s), budget grants %d — fix the findings or raise the budget in %s with review\n",
				name, counts[name], allowed, path)
			ok = false
		}
	}
	if ok {
		fmt.Printf("suppression budget ok (%s)\n", path)
	}
	return ok, nil
}
