package nvmstore_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// lintedPackages are the packages whose exported API must be fully
// documented: the serving layer and observability surface other
// programs build against, the fault layer whose spec grammar users
// type on the command line, and the storage core (engine, buffer
// manager, WAL, simulated devices and their media) that every layer
// above builds on.
// CI runs this as the docs-lint step.
var lintedPackages = []string{
	"internal/wire",
	"internal/server",
	"internal/client",
	"internal/obs",
	"internal/fault",
	"internal/fault/harness",
	"internal/remote",
	"internal/bench",
	"internal/repl",
	"internal/engine",
	"internal/core",
	"internal/wal",
	"internal/nvm",
	"internal/ssd",
	"internal/offheap",
}

// TestExportedIdentifiersDocumented fails for every exported top-level
// type, function, method, constant, or variable in the linted packages
// that carries no doc comment. Grouped const/var blocks count as
// documented when the block itself has a doc comment or the individual
// spec has a line comment.
func TestExportedIdentifiersDocumented(t *testing.T) {
	for _, pkg := range lintedPackages {
		pkg := pkg
		t.Run(strings.ReplaceAll(pkg, "/", "_"), func(t *testing.T) {
			for _, miss := range undocumented(t, pkg) {
				t.Errorf("%s: exported %s has no doc comment", pkg, miss)
			}
		})
	}
}

// undocumented parses one package directory (tests excluded) and
// returns a description of every exported identifier without a doc
// comment.
func undocumented(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var missing []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		missing = append(missing, undocumentedInFile(f)...)
	}
	return missing
}

func undocumentedInFile(f *ast.File) []string {
	var missing []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			if r := receiverType(d); r != "" {
				if !ast.IsExported(r) {
					continue // method on an unexported type
				}
				missing = append(missing, fmt.Sprintf("method %s.%s", r, d.Name.Name))
			} else {
				missing = append(missing, "func "+d.Name.Name)
			}
		case *ast.GenDecl:
			missing = append(missing, undocumentedInGenDecl(d)...)
		}
	}
	return missing
}

func undocumentedInGenDecl(d *ast.GenDecl) []string {
	var missing []string
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
				missing = append(missing, "type "+s.Name.Name)
			}
		case *ast.ValueSpec:
			if d.Doc != nil || s.Doc != nil || s.Comment != nil {
				continue
			}
			for _, n := range s.Names {
				if n.IsExported() {
					missing = append(missing, kindWord(d.Tok)+" "+n.Name)
				}
			}
		}
	}
	return missing
}

func kindWord(tok token.Token) string {
	if tok == token.CONST {
		return "const"
	}
	return "var"
}

// receiverType returns the name of a method's receiver type, or "" for
// a plain function.
func receiverType(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// TestServerFlagsDocumented fails when the flags cmd/nvmserver declares
// and the flag rows of docs/OPERATIONS.md §1 differ in either direction:
// an undocumented flag, or a documented flag the binary no longer has.
func TestServerFlagsDocumented(t *testing.T) {
	flagsDocumented(t, "cmd/nvmserver/main.go", 1)
}

// TestBenchFlagsDocumented is TestServerFlagsDocumented for cmd/nvmbench
// and docs/OPERATIONS.md §2.
func TestBenchFlagsDocumented(t *testing.T) {
	flagsDocumented(t, "cmd/nvmbench/main.go", 2)
}

// flagsDocumented compares the flags mainGo declares on the flag package
// or on a FlagSet named fs (Var ones included) with the flags named in the
// first column of the table rows of docs/OPERATIONS.md §n; one row may
// name several flags ("`-a` / `-b`").
func flagsDocumented(t *testing.T, mainGo string, n int) {
	t.Helper()
	src, err := os.ReadFile(mainGo)
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, m := range regexp.MustCompile(`\b(?:flag|fs)\.(?:Bool|Duration|Float64|Int|Int64|String|Uint|Uint64|Var)\((?:&\w+, )?"([^"]+)"`).FindAllSubmatch(src, -1) {
		declared = append(declared, string(m[1]))
	}
	doc, err := os.ReadFile("docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(doc), fmt.Sprintf("\n## %d.", n))
	section, _, _ = strings.Cut(section, fmt.Sprintf("\n## %d.", n+1))
	var documented []string
	for _, row := range regexp.MustCompile("(?m)^\\| (`-[^|]+) \\|").FindAllStringSubmatch(section, -1) {
		for _, m := range regexp.MustCompile("`-([^`]+)`").FindAllStringSubmatch(row[1], -1) {
			documented = append(documented, m[1])
		}
	}
	slices.Sort(declared)
	slices.Sort(documented)
	if len(declared) == 0 || !slices.Equal(declared, documented) {
		t.Errorf("%s flags and docs/OPERATIONS.md §%d differ:\n declared:   %v\n documented: %v",
			mainGo, n, declared, documented)
	}
}

// TestDesignInventoryNamesRealPaths fails when a backticked internal/…,
// cmd/… or examples/… path in the DESIGN.md §3 inventory table names no
// directory, or when a directory of Go files under internal/ or cmd/ has
// no row there.
func TestDesignInventoryNamesRealPaths(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(doc), "\n## 3.")
	section, _, _ = strings.Cut(section, "\n#")
	named := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\|.*$").FindAllString(section, -1) {
		for _, p := range regexp.MustCompile("`((?:internal|cmd|examples)/[^`]+)`").FindAllStringSubmatch(m, -1) {
			named[p[1]] = true
		}
	}
	if len(named) == 0 {
		t.Fatal("DESIGN.md §3 names no internal/, cmd/ or examples/ path")
	}
	for p := range named {
		if fi, err := os.Stat(p); err != nil || !fi.IsDir() {
			t.Errorf("DESIGN.md §3 names %s, which is not a directory", p)
		}
	}
	for _, f := range parseRepo(t) {
		dir := path.Dir(f.path)
		if (strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/")) && !named[dir] {
			named[dir] = true // report each directory once
			t.Errorf("%s has no row in the DESIGN.md §3 inventory", dir)
		}
	}
}

// TestStatsFieldsDocumented fails when the json field names of
// server.StatsDoc, each with its Prometheus kind (the prom tag, "—" for
// none), and the fields in the first column of the docs/OPERATIONS.md §3
// table, each with the kind column of its row, differ in either direction.
func TestStatsFieldsDocumented(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "internal/server/server.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != "StatsDoc" {
			return true
		}
		for _, field := range ts.Type.(*ast.StructType).Fields.List {
			if field.Tag == nil {
				t.Errorf("StatsDoc field %v has no json tag", field.Names)
				continue
			}
			tag := reflect.StructTag(strings.Trim(field.Tag.Value, "`"))
			name, _, _ := strings.Cut(tag.Get("json"), ",")
			kind := tag.Get("prom")
			if kind == "" {
				kind = "—"
			}
			declared = append(declared, name+" "+kind)
		}
		return false
	})
	doc, err := os.ReadFile("docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(doc), "\n## 3.")
	section, _, _ = strings.Cut(section, "\n## 4.")
	var documented []string
	backticked := regexp.MustCompile("`([^`]+)`")
	for _, row := range regexp.MustCompile("(?m)^\\| (`[^|]+) \\| ([^|]+) \\|").FindAllStringSubmatch(section, -1) {
		for _, m := range backticked.FindAllStringSubmatch(row[1], -1) {
			documented = append(documented, m[1]+" "+row[2])
		}
	}
	slices.Sort(declared)
	slices.Sort(documented)
	if len(declared) == 0 || !slices.Equal(declared, documented) {
		t.Errorf("server.StatsDoc json fields and kinds and docs/OPERATIONS.md §3 differ:\n declared:   %v\n documented: %v", declared, documented)
	}
}

// TestCIRunPatternsMatchTests fails for every |-alternative of a quoted
// -run pattern in the CI workflow that matches no test function in the
// repository. go test -run matches unanchored, so an alternative may name
// a prefix of several tests; one that names a deleted or renamed test
// matches nothing, and CI would run it as an empty, passing step.
func TestCIRunPatternsMatchTests(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	var tests []string
	for _, f := range parseRepo(t) {
		for _, decl := range f.ast.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && f.test && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Test") {
				tests = append(tests, fd.Name.Name)
			}
		}
	}
	patterns := regexp.MustCompile(`-run '([^']*)'`).FindAllSubmatch(ci, -1)
	if len(patterns) == 0 {
		t.Fatal("no -run patterns found in ci.yml")
	}
	for _, p := range patterns {
		for _, alt := range strings.Split(string(p[1]), "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("ci.yml -run alternative %q: %v", alt, err)
				continue
			}
			if !slices.ContainsFunc(tests, re.MatchString) {
				t.Errorf("ci.yml -run alternative %q matches no test function", alt)
			}
		}
	}
}

// TestCICountsNoSourceText fails when the CI workflow counts or searches
// Go source as text: a grep -c or -vc, an awk cut of a function body,
// or a grep over .go files. Such a rule belongs in TestArchitectureGates
// (gates_test.go), which counts on the parsed source and which
// go test ./... runs.
func TestCICountsNoSourceText(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	for _, re := range []*regexp.Regexp{
		regexp.MustCompile(`\bgrep\s+-[A-Za-z]*c`),
		regexp.MustCompile(`\bawk\s+'/\^func`),
		regexp.MustCompile(`\bgrep\b[^|\n]*(--include=.?\*\.go|\.go\b)`),
	} {
		for _, m := range re.FindAll(ci, -1) {
			t.Errorf("ci.yml counts source text (%q); add a row to the gates in gates_test.go instead", m)
		}
	}
}

// TestPublicAPIPinned fails when the exported top-level names and methods
// of the root package differ from testdata/public_api.txt in either
// direction, so the public API grows or shrinks only together with that
// list.
func TestPublicAPIPinned(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var exported []string
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		exported = append(exported, exportedInFile(f)...)
	}
	want, err := os.ReadFile("testdata/public_api.txt")
	if err != nil {
		t.Fatal(err)
	}
	pinned := strings.Split(strings.TrimSpace(string(want)), "\n")
	slices.Sort(exported)
	slices.Sort(pinned)
	for _, name := range exported {
		if _, found := slices.BinarySearch(pinned, name); !found {
			t.Errorf("exported %s is not in testdata/public_api.txt", name)
		}
	}
	for _, name := range pinned {
		if _, found := slices.BinarySearch(exported, name); !found {
			t.Errorf("testdata/public_api.txt lists %s, which the package no longer exports", name)
		}
	}
}

// exportedInFile lists a file's exported top-level names and its exported
// methods on exported types, each as "<kind> <name>" or
// "method <Type>.<Name>".
func exportedInFile(f *ast.File) []string {
	var names []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if r := receiverType(d); r == "" {
				names = append(names, "func "+d.Name.Name)
			} else if ast.IsExported(r) {
				names = append(names, "method "+r+"."+d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						names = append(names, "type "+s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							names = append(names, kindWord(d.Tok)+" "+n.Name)
						}
					}
				}
			}
		}
	}
	return names
}

// TestSettingsPinned fails when the exported fields of the exported
// *Config and *Options structs outside benchmark/ differ from
// testdata/settings.txt in either direction, so a setting is added or
// removed only together with that list.
func TestSettingsPinned(t *testing.T) {
	var settings []string
	for _, f := range nonTest(except(parseRepo(t), "benchmark")) {
		pkg := path.Join("nvmstore", path.Dir(f.path))
		for _, decl := range f.ast.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				name := ts.Name.Name
				if !ok || !ts.Name.IsExported() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
					continue
				}
				for _, field := range st.Fields.List {
					for _, n := range field.Names {
						if n.IsExported() {
							settings = append(settings, pkg+"."+name+"."+n.Name)
						}
					}
				}
			}
		}
	}
	want, err := os.ReadFile("testdata/settings.txt")
	if err != nil {
		t.Fatal(err)
	}
	pinned := strings.Split(strings.TrimSpace(string(want)), "\n")
	slices.Sort(settings)
	slices.Sort(pinned)
	for _, s := range settings {
		if _, found := slices.BinarySearch(pinned, s); !found {
			t.Errorf("setting %s is not in testdata/settings.txt", s)
		}
	}
	for _, s := range pinned {
		if _, found := slices.BinarySearch(settings, s); !found {
			t.Errorf("testdata/settings.txt lists %s, which no longer exists", s)
		}
	}
}
