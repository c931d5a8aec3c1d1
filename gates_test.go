package nvmstore_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// gate is one architecture rule: a mechanism the five architectures
// share has one implementation, so they differ in their storage layer
// alone. check returns a line per violation, found in the parsed Go
// source of the repository; heading is the DESIGN.md heading whose
// section states the rule, so the rule and its explanation go together.
type gate struct {
	rule    string
	heading string
	check   func(src []goFile) []string
}

// gates are the rows of TestArchitectureGates.
var gates = []gate{
	{
		// A log flush ends on a line boundary with its last record
		// marked, so no log line is flushed twice between truncations.
		// Log.Flush owns that rule; a second flush site would not apply
		// it. Truncate's one device write persists the LSN floor.
		rule:    "One log flush site",
		heading: "9.7 What the log holds: redo always, undo on steal",
		check: func(src []goFile) []string {
			return sitesAre(calls(nonTest(under(src, "internal/wal")), "dev.Flush", "dev.Persist"),
				"Log.Flush dev.Flush", "Log.Truncate dev.Persist")
		},
	},
	{
		// An update record carries only its redo image, on all five
		// architectures; logUndo logs the undo images, and the write
		// barrier and makeDurable's page images run it before uncommitted
		// bytes can reach persistent storage. NVM Direct runs the barrier as each
		// op is logged, before the tree stores in place. A second caller
		// would log undo the rule does not account for.
		rule:    "One undo append",
		heading: "9.7 What the log holds: redo always, undo on steal",
		check: func(src []goFile) []string {
			return sitesAre(calls(nonTest(src), "AppendUndo"), "Engine.logUndo AppendUndo")
		},
	},
	{
		// The B-tree reports its structural changes and keeps no
		// durability state: Engine.makeDurable decides, by topology, how
		// each becomes durable — page images in the log, or NVM Direct's
		// force-writes behind the root record. A second ForceWrite caller
		// would be a second decision.
		rule:    "One structural-durability decision",
		heading: "9.7 What the log holds: redo always, undo on steal",
		check: func(src []goFile) []string {
			return sitesAre(calls(nonTest(src), "ForceWrite"), "Engine.makeDurable ForceWrite")
		},
	},
	{
		// Overwrite dirties lines without arming the write-back undo
		// journal: crash-safe only for bytes whose after-image is in the
		// WAL and that move nothing else on the page. Row.Update is the
		// tree's one field write (UpdateField and Put go through it).
		rule:    "One journal-free store",
		heading: "9.4 The NVM write-back undo journal",
		check: func(src []goFile) []string {
			return sitesAre(calls(nonTest(src), "Overwrite"), "Row.Update Overwrite")
		},
	},
	{
		// Every page access is one MakeResident over a span of cache
		// lines (§3.1–3.2), on a full page, a mini page or an NVM Direct
		// page in place: Handle.access, which Handle's Read, Write,
		// Overwrite, ReadAll and WriteAll call on their span. A mini
		// page resolves its slots in miniAccess, which forwards a
		// promoted page to Handle.access. A second caller would be a
		// second access path.
		rule:    "One page access",
		heading: "2. Substitutions (no NVM/SSD hardware, Go instead of C++)",
		check: func(src []goFile) []string {
			return sitesAre(calls(nonTest(under(src, "internal/core")), "makeResident", "nvm.Touch"),
				"Handle.access makeResident", "Handle.access nvm.Touch", "Frame.miniAccess makeResident")
		},
	},
	{
		// Frame write-back and NVM-slot eviction are the two SSD writers,
		// slot data is flushed in writeBack alone, every other durable
		// store goes through the one charged persist helper, and the log
		// is cut by the checkpoint round's truncateLog alone.
		rule:    "One write-back path",
		heading: "9.4 The NVM write-back undo journal",
		check: func(src []goFile) []string {
			core := nonTest(under(src, "internal/core"))
			return slices.Concat(
				sitesAre(calls(core, "ssd.WritePage"),
					"Manager.evictNVMSlot ssd.WritePage", "Manager.writeBack ssd.WritePage"),
				sitesAre(calls(core, "nvm.Flush"), "Manager.writeBack nvm.Flush"),
				sitesAre(calls(core, "nvm.Persist"), "Manager.persist nvm.Persist"),
				sitesAre(calls(nonTest(src), "log.Truncate"), "Engine.truncateLog log.Truncate"))
		},
	},
	{
		// The NVM slab, its wear counters and CPU-cache tags, and the SSD's
		// pages live off the Go heap and are unmapped once their device is
		// unreachable. A slice of the medium outliving its device would
		// read unmapped memory, so the one holder of nvm.Device.View
		// slices is a direct frame, reached only through the Manager that
		// holds the device.
		rule:    "One media allocator; views stay in core",
		heading: "2. Substitutions (no NVM/SSD hardware, Go instead of C++)",
		check: func(src []goFile) []string {
			outside := except(src, "internal/offheap")
			var bad []string
			for _, s := range calls(outside, "syscall.Mmap", "syscall.Munmap", "syscall.Madvise") {
				bad = append(bad, s.pos+": "+s.call+" outside internal/offheap")
			}
			for _, f := range outside {
				for _, imp := range f.ast.Imports {
					if imp.Path.Value == `"unsafe"` {
						bad = append(bad, f.path+": imports unsafe outside internal/offheap")
					}
				}
			}
			for _, m := range mediaMakes(nonTest(slices.Concat(under(src, "internal/nvm"), under(src, "internal/ssd")))) {
				bad = append(bad, m+": a medium or its counters made on the Go heap, not carved from an offheap.Arena")
			}
			return append(bad, sitesAre(calls(nonTest(src), "View"), "Manager.directFrame View")...)
		},
	},
	{
		// The per-connection reader is the only goroutine server.go starts
		// for a connection; the response queue, its writer and the NVM
		// device's private crash injector stay deleted (internal/fault is
		// the one injector).
		rule:    "One response path, one crash injector",
		heading: "8. Serving layer (network)",
		check: func(src []goFile) []string {
			var bad []string
			goConn := 0
			for _, f := range file(src, "internal/server/server.go") {
				ast.Inspect(f.ast, func(n ast.Node) bool {
					if g, ok := n.(*ast.GoStmt); ok && isConnMethod(g.Call.Fun) {
						goConn++
					}
					return true
				})
			}
			if goConn != 1 {
				bad = append(bad, "internal/server/server.go starts "+strconv.Itoa(goConn)+" goroutines on a conn method, want 1 (readLoop)")
			}
			for _, f := range src {
				ast.Inspect(f.ast, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && slices.Contains([]string{"WriteQueue", "writeLoop", "FailAfterFlushes"}, id.Name) {
						bad = append(bad, f.fset.Position(id.Pos()).String()+": "+id.Name+" is back")
					}
					return true
				})
			}
			return bad
		},
	},
	{
		// Group commit, checkpoint pacing, fault absorption and scans
		// beside writers are guarded by deterministic tests, not by
		// wall-clock experiments: internal/bench keeps the paper's
		// figures, figA1 and the admission ablation. nvmbench runs every
		// experiment from one list, so it names none but "all".
		rule:    "One harness per purpose",
		heading: "4. Experiment index (evaluation section + appendix)",
		check: func(src []goFile) []string {
			bad := experimentBranches(nonTest(under(src, "cmd/nvmbench")))
			if len(file(src, "internal/remote/groupcommit.go")) > 0 {
				bad = append(bad, "internal/remote/groupcommit.go is back")
			}
			for _, f := range file(src, "internal/bench/registry.go") {
				ast.Inspect(f.ast, func(n ast.Node) bool {
					if cl, ok := n.(*ast.CompositeLit); ok && len(cl.Elts) > 0 {
						if id := stringLit(cl.Elts[0]); slices.Contains([]string{"groupcommit", "ckptstall", "readscale", "faults"}, id) {
							bad = append(bad, f.fset.Position(cl.Pos()).String()+": experiment "+strconv.Quote(id)+" is back")
						}
					}
					return true
				})
			}
			return bad
		},
	},
	{
		// The embedded KV API is all package nvmstore exports. The layers
		// built on the store reach its engine through engine.Of, which the
		// root package assigns once; only replication, the serving layer
		// and the fault harness call it.
		rule:    "One engine seam",
		heading: "3.1 The public API and the one engine seam",
		check: func(src []goFile) []string {
			var bad []string
			assigned := 0
			for _, f := range src {
				ast.Inspect(f.ast, func(n ast.Node) bool {
					as, ok := n.(*ast.AssignStmt)
					if !ok {
						return true
					}
					for _, lhs := range as.Lhs {
						if !slices.Equal(selectorChain(lhs), []string{"engine", "Of"}) {
							continue
						}
						if f.test || strings.Contains(f.path, "/") {
							bad = append(bad, f.fset.Position(as.Pos()).String()+": engine.Of assigned outside package nvmstore")
						} else {
							assigned++
						}
					}
					return true
				})
			}
			if assigned != 1 {
				bad = append(bad, "package nvmstore assigns engine.Of "+strconv.Itoa(assigned)+" times, want 1")
			}
			for _, s := range calls(nonTest(src), "engine.Of") {
				if !slices.ContainsFunc([]string{"internal/repl/", "internal/server/", "internal/fault/harness/"},
					func(dir string) bool { return strings.HasPrefix(s.pos, dir) }) {
					bad = append(bad, s.pos+": engine.Of called outside internal/repl, internal/server and internal/fault/harness")
				}
			}
			return bad
		},
	},
	{
		// Every flush-sharing site is a Batch call. The root package
		// flushes in Batch's leader, in the public FlushWAL and before a
		// snapshot reads the durable LSN; internal/repl only where it must
		// flush before reading the durable LSN (Source.Attach) and where
		// the wipe stays in one lock hold (Replica.wipeShard).
		rule:    "One flush-sharing primitive",
		heading: "10. Group commit — one primitive, no feeders",
		check: func(src []goFile) []string {
			return slices.Concat(
				onlyIn(calls(nonTest(rootPackage(src)), "FlushWAL"), "Store.FlushWAL", "ShardedStore.lead", "ShardedStore.Snapshot"),
				onlyIn(calls(nonTest(under(src, "internal/server")), "FlushWAL")),
				onlyIn(calls(nonTest(under(src, "internal/repl")), "FlushWAL"), "Source.Attach", "Replica.wipeShard"))
		},
	},
	{
		// Engine.Commit is CommitNoFlush then FlushWAL on all five
		// architectures. The log's commit append and its tail flush each
		// have one engine caller, beside recovery's own image transaction
		// (logRestructured), and the log has no commit that flushes. The
		// topology reaches the commit path only as NVM Direct's
		// maintenance thresholds: the engine names core.DirectNVM where
		// its storage layer differs, and nowhere else.
		rule:    "One commit path",
		heading: "10. Group commit — one primitive, no feeders",
		check: func(src []goFile) []string {
			code := nonTest(src)
			return slices.Concat(
				sitesAre(calls(code, "log.CommitNoFlush"),
					"Engine.CommitNoFlush log.CommitNoFlush", "Engine.logRestructured log.CommitNoFlush"),
				sitesAre(calls(code, "log.FlushTail"), "Engine.FlushWAL log.FlushTail"),
				sitesAre(calls(code, "log.Commit")),
				onlyIn(refs(under(code, "internal/engine"), "core.DirectNVM"),
					"DefaultConfig", "Engine.SetMaintenance", "Engine.logOp", "Engine.LogRoot", "Engine.makeDurable"))
		},
	},
	{
		// STATS numbers reach /metrics through their StatsDoc tags; the
		// only literal counter and gauge families in server.go are the
		// per-replica repl_* block.
		rule:    "One declaration per served metric",
		heading: "11. Request tracing & tail-latency attribution",
		check: func(src []goFile) []string {
			var bad []string
			for _, s := range calls(file(src, "internal/server/server.go"), "Counter", "Gauge") {
				if len(s.expr.Args) == 0 || !strings.HasPrefix(stringLit(s.expr.Args[0]), "nvmstore_repl_") {
					bad = append(bad, s.pos+": "+s.call+" declares a family by hand; give the number a StatsDoc field")
				}
			}
			return bad
		},
	},
}

// TestArchitectureGates fails for every violation of a gate row, and for
// every row whose DESIGN.md heading is gone. Each row counts call sites,
// imports, identifiers or the functions that enclose them in the parsed
// source (go/ast, not text), so comments, strings and formatting cannot
// satisfy or break it.
func TestArchitectureGates(t *testing.T) {
	src := parseRepo(t)
	headings := designHeadings(t)
	for _, g := range gates {
		t.Run(strings.ReplaceAll(g.rule, " ", "_"), func(t *testing.T) {
			if !slices.Contains(headings, g.heading) {
				t.Errorf("DESIGN.md has no heading %q, which states this rule", g.heading)
			}
			for _, v := range g.check(src) {
				t.Errorf("%s (DESIGN.md %q): %s", g.rule, g.heading, v)
			}
		})
	}
}

// goFile is one parsed Go file of the repository.
type goFile struct {
	path string // slash-separated, relative to the repository root
	test bool
	fset *token.FileSet
	ast  *ast.File
}

// parseRepo parses every Go file of the repository, tests included, and
// skips dot directories and testdata.
func parseRepo(t *testing.T) []goFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []goFile
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, goFile{filepath.ToSlash(path), strings.HasSuffix(path, "_test.go"), fset, f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no Go files found")
	}
	return files
}

// designHeadings returns the text of every Markdown heading in DESIGN.md.
func designHeadings(t *testing.T) []string {
	t.Helper()
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	var headings []string
	for _, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "#") {
			headings = append(headings, strings.TrimSpace(strings.TrimLeft(line, "#")))
		}
	}
	return headings
}

func nonTest(files []goFile) []goFile {
	return slices.DeleteFunc(slices.Clone(files), func(f goFile) bool { return f.test })
}

// under keeps the files of dir and its subdirectories.
func under(files []goFile, dir string) []goFile {
	return slices.DeleteFunc(slices.Clone(files), func(f goFile) bool { return !strings.HasPrefix(f.path, dir+"/") })
}

// file keeps the file at path, if it exists.
func file(files []goFile, path string) []goFile {
	return slices.DeleteFunc(slices.Clone(files), func(f goFile) bool { return f.path != path })
}

// rootPackage keeps the files of the repository's root directory.
func rootPackage(files []goFile) []goFile {
	return slices.DeleteFunc(slices.Clone(files), func(f goFile) bool { return strings.Contains(f.path, "/") })
}

// except drops the files of dir and its subdirectories.
func except(files []goFile, dir string) []goFile {
	return slices.DeleteFunc(slices.Clone(files), func(f goFile) bool { return strings.HasPrefix(f.path, dir+"/") })
}

// site is one call and the top-level function or method enclosing it.
type site struct {
	pos  string
	fn   string // "Recv.Name", "Name", or "" outside any function
	call string // the callee's trailing selectors that matched
	expr *ast.CallExpr
}

// calls returns every call whose callee ends in one of the dotted
// selector chains: "AppendUndo" matches x.AppendUndo(…) and
// a.b.AppendUndo(…), "dev.Flush" matches l.dev.Flush(…), and
// "syscall.Mmap" the package function.
func calls(files []goFile, chains ...string) []site {
	var sites []site
	for _, f := range files {
		for _, decl := range f.ast.Decls {
			fn := funcName(decl)
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				names := selectorChain(call.Fun)
				for _, c := range chains {
					want := strings.Split(c, ".")
					if len(names) >= len(want) && slices.Equal(names[len(names)-len(want):], want) {
						sites = append(sites, site{f.fset.Position(call.Pos()).String(), fn, c, call})
					}
				}
				return true
			})
		}
	}
	return sites
}

// refs returns every use of the qualified name chain, such as
// "core.DirectNVM", with the function enclosing it.
func refs(files []goFile, chain string) []site {
	want := strings.Split(chain, ".")
	var sites []site
	for _, f := range files {
		for _, decl := range f.ast.Decls {
			fn := funcName(decl)
			ast.Inspect(decl, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && slices.Equal(selectorChain(sel), want) {
					sites = append(sites, site{f.fset.Position(sel.Pos()).String(), fn, chain, nil})
				}
				return true
			})
		}
	}
	return sites
}

// funcName names a top-level declaration as site.fn does: "Recv.Name"
// for a method, "Name" for a function, "" for anything else.
func funcName(decl ast.Decl) string {
	fd, ok := decl.(*ast.FuncDecl)
	if !ok {
		return ""
	}
	if r := receiverType(fd); r != "" {
		return r + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// selectorChain returns the names of a.b.c as [a b c]; a chain that does
// not start at an identifier (f().b.c) keeps only its selectors.
func selectorChain(e ast.Expr) []string {
	var names []string
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			names = append(names, x.Sel.Name)
			e = x.X
		case *ast.Ident:
			names = append(names, x.Name)
			slices.Reverse(names)
			return names
		default:
			slices.Reverse(names)
			return names
		}
	}
}

// sitesAre reports a violation unless the calls are exactly the wanted
// ones, each given as "<enclosing function> <chain>".
func sitesAre(got []site, want ...string) []string {
	var have []string
	for _, s := range got {
		have = append(have, s.fn+" "+s.call)
	}
	slices.Sort(have)
	slices.Sort(want)
	if slices.Equal(have, want) {
		return nil
	}
	var where []string
	for _, s := range got {
		where = append(where, s.pos+" in "+s.fn)
	}
	return []string{"call sites " + strings.Join(have, ", ") + " (" + strings.Join(where, "; ") +
		"), want exactly " + strings.Join(want, ", ")}
}

// onlyIn reports every call not enclosed by one of the functions fns,
// each given as "Recv.Name" or "Name".
func onlyIn(got []site, fns ...string) []string {
	var bad []string
	for _, s := range got {
		if !slices.Contains(fns, s.fn) {
			bad = append(bad, s.pos+": "+s.call+" in "+s.fn+", allowed only in ["+strings.Join(fns, ", ")+"]")
		}
	}
	return bad
}

// mediaMakes returns the position of every make of a []byte, []uint32 or
// []int64, the element types of a medium and its counters; a []byte of
// LineSize, one line's scratch buffer, is allowed.
func mediaMakes(files []goFile) []string {
	var found []string
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "make" {
				return true
			}
			at, ok := call.Args[0].(*ast.ArrayType)
			if !ok || at.Len != nil {
				return true
			}
			elt, _ := at.Elt.(*ast.Ident)
			if elt == nil || !slices.Contains([]string{"byte", "uint32", "int64"}, elt.Name) {
				return true
			}
			if size, ok := call.Args[1].(*ast.Ident); ok && elt.Name == "byte" && size.Name == "LineSize" {
				return true
			}
			found = append(found, f.fset.Position(call.Pos()).String())
			return true
		})
	}
	return found
}

// isConnMethod reports whether fn is a method value on the variable c, as
// in go c.readLoop().
func isConnMethod(fn ast.Expr) bool {
	sel, ok := fn.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == "c"
}

// experimentBranches returns every comparison, == or != or a switch,
// of the -experiment flag's value with a string literal other than "all"
// and "": a branch for one experiment beside the list all of them run
// from. The flag is declared on the flag package or on a FlagSet named
// fs; no such String("experiment", …) in the files is a violation too,
// so the rule cannot pass by renaming the flag away.
func experimentBranches(files []goFile) []string {
	var bad []string
	for _, f := range files {
		var vars []string
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if vs, ok := n.(*ast.ValueSpec); ok {
				for i, v := range vs.Values {
					if call, ok := v.(*ast.CallExpr); ok && slices.Contains([]string{"flag.String", "fs.String"}, strings.Join(selectorChain(call.Fun), ".")) &&
						len(call.Args) > 0 && stringLit(call.Args[0]) == "experiment" {
						vars = append(vars, vs.Names[i].Name)
					}
				}
			}
			return true
		})
		if len(vars) == 0 {
			continue
		}
		// The flag is a local of the file that declares it, so its
		// comparisons are in that file too.
		isFlag := func(e ast.Expr) bool {
			if star, ok := e.(*ast.StarExpr); ok {
				e = star.X
			}
			id, ok := e.(*ast.Ident)
			return ok && slices.Contains(vars, id.Name)
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			var operands []ast.Expr
			switch x := n.(type) {
			case *ast.BinaryExpr:
				if x.Op == token.EQL || x.Op == token.NEQ {
					if isFlag(x.X) {
						operands = append(operands, x.Y)
					}
					if isFlag(x.Y) {
						operands = append(operands, x.X)
					}
				}
			case *ast.SwitchStmt:
				if x.Tag != nil && isFlag(x.Tag) {
					for _, c := range x.Body.List {
						operands = append(operands, c.(*ast.CaseClause).List...)
					}
				}
			}
			for _, e := range operands {
				if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING && !slices.Contains([]string{"all", ""}, stringLit(lit)) {
					bad = append(bad, f.fset.Position(lit.Pos()).String()+": nvmbench branches on experiment "+lit.Value+"; add it to the one experiment list instead")
				}
			}
			return true
		})
		return bad
	}
	return append(bad, "cmd/nvmbench declares no flag.String or fs.String(\"experiment\", …)")
}

// stringLit returns the value of a string literal, or "" for any other
// expression.
func stringLit(e ast.Expr) string {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return ""
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return ""
	}
	return s
}
