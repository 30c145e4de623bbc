package openmb

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestRepoRules holds the repository's structural rules. It type-checks the
// non-test files of every package of the modules (openmb, benchmark/ and
// each example's under examples/) once, in `go list -deps` order, each
// package importing the module packages already checked and the standard
// library through importer.Default(), and then checks the rules on types rather than text. A
// type error anywhere — say, benchmark/ using a name the tree no longer
// has — fails the test.
//
// The rules are in repoRules; the allowlists and the options list they read
// are in reporules_lists_test.go and may only shrink. Each rule has a fixture
// under testdata/reporules and must flag exactly the lines marked "// want".
func TestRepoRules(t *testing.T) {
	prog := loadProgram(t)
	for _, r := range repoRules {
		t.Run(r.name, func(t *testing.T) {
			for _, p := range prog.pkgs {
				for _, f := range r.check(prog, p) {
					t.Error(f)
				}
			}
			if r.stale != nil {
				for _, f := range r.stale(prog) {
					t.Error(f)
				}
			}
			fx := prog.fixture(t, r.fixture)
			want := fx.wantLines()
			if len(want) == 0 {
				t.Errorf("testdata/reporules/%s.go marks no line \"// want\"", r.fixture)
			}
			flagged := map[int]bool{}
			for _, f := range r.check(prog, fx) {
				t.Logf("fixture: %s", f)
				line, _ := strconv.Atoi(strings.SplitN(f, ":", 3)[1])
				flagged[line] = true
				if !want[line] {
					t.Errorf("%s: flagged on a line the fixture does not mark \"// want\"", f)
				}
			}
			for line := range want {
				if !flagged[line] {
					t.Errorf("testdata/reporules/%s.go:%d: the rule does not flag this line", r.fixture, line)
				}
			}
		})
	}
}

// A repoRule reports its findings in one package, as "file:line: message"
// lines. stale, if set, reports the entries of the rule's allowlist that no
// longer match anything, so a list only shrinks as the code does.
type repoRule struct {
	name    string
	fixture string // testdata/reporules/<fixture>.go, whose "// want" lines the rule must flag
	check   func(prog *program, p *modPkg) []string
	stale   func(prog *program) []string
}

var repoRules = []repoRule{
	{
		// Importing a package must never parse (or panic on) the
		// environment: only the cmd/ mains turn OPENMB_* variables into
		// flag defaults.
		name: "NoEnvironmentInLibrary", fixture: "env",
		check: func(prog *program, p *modPkg) []string {
			if !p.library() {
				return nil
			}
			return p.usesOf(func(o types.Object) bool {
				return isFunc(o, "os", "Getenv", "LookupEnv", "Environ", "ExpandEnv") ||
					isFunc(o, "syscall", "Getenv", "Environ")
			}, "library code reads the environment")
		},
	},
	{
		// Tables hold packet.FlowID (16 bytes, pointer-free); FlowKey is
		// the API form and converts at the boundary. internal/trace
		// computes offline trace-file statistics and is exempt.
		name: "NoTableKeyedByFlowKey", fixture: "flowkey",
		check: func(prog *program, p *modPkg) []string {
			if p.rel == "internal/trace" {
				return nil
			}
			key := prog.lookup("internal/packet", "FlowKey").Type()
			return p.mapsKeyedBy(key, "a table is keyed by packet.FlowKey; key it by packet.FlowID")
		},
	},
	{
		// Per-flow state lives in one mbox.Table per middlebox, which does
		// get, put, delete and stats once and reports every packet-path
		// update itself (Table.Touch/Insert). A map keyed by flow ID, a
		// flat flow table of its own or a direct per-flow Context.Touch in
		// a middlebox is a hand-copied shim coming back. TouchShared stays
		// the middlebox's own.
		name: "NoMiddleboxKeepsItsOwnPerFlowTable", fixture: "perflow",
		check: func(prog *program, p *modPkg) []string {
			switch p.rel {
			case "internal/mbox/nat", "internal/mbox/lb", "internal/mbox/monitor", "internal/mbox/ips", "internal/mbox/mbtest":
			default:
				return nil
			}
			const msg = "a middlebox keeps per-flow state outside its mbox.Table"
			flowTable := prog.lookup("internal/packet", "FlowTable")
			touch := prog.method("internal/mbox", "Context", "Touch")
			return append(p.mapsKeyedBy(prog.lookup("internal/packet", "FlowID").Type(), msg),
				p.usesOf(func(o types.Object) bool { return o == flowTable || o == touch }, msg)...)
		},
	},
	{
		// A middlebox's per-flow state and the runtime's transaction marks
		// each sit in one flat flow table (packet.FlowTable): a prefix
		// match scans it and a mark is a set insert. A FlowIndex beside a
		// table, or a per-get sort of its keys (packet.SortIDs), is a
		// second structure coming back.
		name: "OneKeyStructureUnderPerFlowState", fixture: "flowindex",
		check: func(prog *program, p *modPkg) []string {
			if p.rel != "internal/mbox" && !strings.HasPrefix(p.rel, "internal/mbox/") {
				return nil
			}
			index := prog.lookup("internal/state", "FlowIndex")
			newIndex := prog.lookup("internal/state", "NewFlowIndex")
			return p.usesOf(func(o types.Object) bool {
				return o == index || o == newIndex || receiverIs(o, index) || isFunc(o, "openmb/internal/packet", "SortIDs")
			}, "internal/mbox keeps a second key structure beside its flat tables")
		},
	},
	{
		// A memory bound must come from data structures, not from tuning
		// the collector: only tests, cmd/ mains and benchmark/ may call
		// these.
		name: "NoGCTuningInLibrary", fixture: "gc",
		check: func(prog *program, p *modPkg) []string {
			if !p.library() {
				return nil
			}
			return p.usesOf(func(o types.Object) bool {
				return isFunc(o, "runtime/debug", "SetGCPercent", "SetMemoryLimit", "FreeOSMemory") ||
					isFunc(o, "runtime", "GC")
			}, "a library package tunes or forces the garbage collector")
		},
	},
	{
		// Waits should be condition signals, not sleeps: a non-test
		// time.Sleep may sit only in a function on sleepAllowlist, and a
		// function holds no more sleeps than the list gives it. When a
		// sleep goes, lower its function's count, or take the function
		// off the allowlist.
		name: "SleepsOnlyWhereListed", fixture: "sleep",
		check: func(prog *program, p *modPkg) []string {
			if p.rel == "benchmark" {
				return nil
			}
			var out []string
			n := map[string]int{}
			for _, s := range p.sleeps() {
				n[s.fn]++
				if listed, ok := sleepAllowlist[s.fn]; !ok {
					out = append(out, fmt.Sprintf("%s: time.Sleep in %s, which is not on sleepAllowlist; wait on a signal", p.pos(s.pos), s.fn))
				} else if n[s.fn] > listed.n {
					out = append(out, fmt.Sprintf("%s: time.Sleep number %d in %s, which sleepAllowlist allows %d; wait on a signal", p.pos(s.pos), n[s.fn], s.fn, listed.n))
				}
			}
			return out
		},
		stale: func(prog *program) []string {
			n := map[string]int{}
			for _, p := range prog.pkgs {
				for _, s := range p.sleeps() {
					n[s.fn]++
				}
			}
			var out []string
			for fn, listed := range sleepAllowlist {
				if n[fn] < listed.n {
					out = append(out, fmt.Sprintf("sleepAllowlist allows %s %d sleeps and it has %d; lower the count, or take it off at 0", fn, listed.n, n[fn]))
				}
			}
			sort.Strings(out)
			return out
		},
	},
	{
		// Every exported name under internal/ has a non-test caller in
		// one of the modules, or is on exportedAllowlist with its reason:
		// test infrastructure, or the roadmap item that wires it. The
		// public surface is what the examples, modules outside openmb,
		// call, so it needs no reason of its own.
		name: "EveryExportedNameHasACaller", fixture: "exported",
		check: func(prog *program, p *modPkg) []string {
			var out []string
			for _, d := range p.exported() {
				if !prog.uses[d.obj] {
					if _, ok := exportedAllowlist[d.name]; !ok {
						out = append(out, fmt.Sprintf("%s: %s has no non-test caller in any module; delete it, or list it in exportedAllowlist with a reason", p.pos(d.obj.Pos()), d.name))
					}
				}
			}
			return out
		},
		stale: func(prog *program) []string {
			listed := map[string]bool{}
			for _, p := range prog.pkgs {
				for _, d := range p.exported() {
					if !prog.uses[d.obj] {
						listed[d.name] = true
					}
				}
			}
			var out []string
			for name, reason := range exportedAllowlist {
				if !strings.HasPrefix(reason, "test infrastructure: ") && !strings.HasPrefix(reason, "ROADMAP item ") {
					out = append(out, fmt.Sprintf("exportedAllowlist gives %s the reason %q; a reason is test infrastructure or a roadmap item", name, reason))
				}
			}
			sort.Strings(out)
			return append(out, staleEntries("exportedAllowlist", exportedAllowlist, listed)...)
		},
	},
	{
		// The library's knobs are the settable fields of its config
		// structs; optionsList names each, and ARCHITECTURE.md's "Tuning
		// knobs" table lists exactly these. A new field fails until it is
		// listed in both.
		name: "OptionsOnlyShrink", fixture: "options",
		check: func(prog *program, p *modPkg) []string {
			var out []string
			for _, o := range p.options() {
				if !slices.Contains(optionsList, o.name) {
					out = append(out, fmt.Sprintf("%s: %s is a new option; the options list only shrinks", p.pos(o.obj.Pos()), o.name))
				}
			}
			return out
		},
		stale: func(prog *program) []string {
			have := map[string]bool{}
			for _, p := range prog.pkgs {
				for _, o := range p.options() {
					have[o.name] = true
				}
			}
			options, _, err := tuningKnobs("docs/ARCHITECTURE.md")
			return listMatches("optionsList", optionsList, have, options, err)
		},
	},
	{
		// The daemons' command-line flags are knobs too: flagsList names
		// every flag the cmd/openmb-controller and cmd/openmb-mb mains
		// define, and the Tuning knobs table names each. A new flag fails
		// until it is listed in both.
		name: "FlagsOnlyShrink", fixture: "flags",
		check: func(prog *program, p *modPkg) []string {
			var out []string
			for _, f := range p.flags() {
				if !slices.Contains(flagsList, f.name) {
					out = append(out, fmt.Sprintf("%s: %s is a new flag; the flags list only shrinks", p.pos(f.pos), f.name))
				}
			}
			return out
		},
		stale: func(prog *program) []string {
			have := map[string]bool{}
			for _, p := range prog.pkgs {
				for _, f := range p.flags() {
					have[f.name] = true
				}
			}
			_, flags, err := tuningKnobs("docs/ARCHITECTURE.md")
			return listMatches("flagsList", flagsList, have, flags, err)
		},
	},
}

// listMatches reports the entries of list that have does not hold, and
// each difference between list and the names the Tuning knobs table gives
// (doc, or the error reading it).
func listMatches(listName string, list []string, have, doc map[string]bool, err error) []string {
	listed := map[string]string{}
	for _, name := range list {
		listed[name] = ""
	}
	out := staleEntries(listName, listed, have)
	if err != nil {
		return append(out, err.Error())
	}
	for _, name := range list {
		if !doc[name] {
			out = append(out, fmt.Sprintf("docs/ARCHITECTURE.md: the Tuning knobs table does not list %s", name))
		}
	}
	for name := range doc {
		if _, ok := listed[name]; !ok {
			out = append(out, fmt.Sprintf("docs/ARCHITECTURE.md: the Tuning knobs table lists %s, which %s does not", name, listName))
		}
	}
	sort.Strings(out)
	return out
}

// staleEntries reports the entries of list that have does not hold.
func staleEntries(listName string, list map[string]string, have map[string]bool) []string {
	var out []string
	for name := range list {
		if !have[name] {
			out = append(out, fmt.Sprintf("%s lists %s, which no longer needs it; take it off", listName, name))
		}
	}
	sort.Strings(out)
	return out
}

// modPkg is one type-checked package: its non-test files only.
type modPkg struct {
	rel   string // import path without the "openmb/" prefix ("openmb" for the root)
	fset  *token.FileSet
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// library reports whether p is library code: the root package or a package
// under internal/.
func (p *modPkg) library() bool {
	return p.rel == "openmb" || strings.HasPrefix(p.rel, "internal/")
}

// program is every package of the modules, type-checked once.
type program struct {
	fset   *token.FileSet
	std    types.Importer
	pkgs   []*modPkg // dependency order
	byPath map[string]*types.Package
	uses   map[types.Object]bool // objects referenced from non-test code, by origin
}

func (prog *program) Import(path string) (*types.Package, error) {
	if p, ok := prog.byPath[path]; ok {
		return p, nil
	}
	return prog.std.Import(path)
}

// loadProgram type-checks the modules' packages in dependency order.
func loadProgram(t *testing.T) *program {
	t.Helper()
	prog := &program{fset: token.NewFileSet(), std: importer.Default(), byPath: map[string]*types.Package{}, uses: map[types.Object]bool{}}
	examples, err := filepath.Glob("examples/*/go.mod") // one module per example
	if err != nil {
		t.Fatal(err)
	}
	dirs := []string{".", "benchmark"}
	for _, m := range examples {
		dirs = append(dirs, filepath.Dir(m))
	}
	for _, dir := range dirs {
		cmd := exec.Command("go", "list", "-deps", "-f",
			`{{if not .Standard}}{{.ImportPath}}|{{.Dir}}|{{join .GoFiles ","}}|{{join .CgoFiles ","}}{{end}}`, "./...")
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "GOPROXY=off") // each module requires only the tree
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v", dir, err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			f := strings.Split(line, "|")
			if len(f) != 4 {
				continue
			}
			path, pkgDir := f[0], f[1]
			if _, ok := prog.byPath[path]; ok {
				continue
			}
			if f[3] != "" {
				t.Fatalf("%s has cgo files, which the rules cannot type-check", path)
			}
			var files []*ast.File
			for _, name := range strings.Split(f[2], ",") {
				if name == "" {
					continue
				}
				file, err := parser.ParseFile(prog.fset, filepath.Join(pkgDir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, file)
			}
			p, errs := prog.check(path, files)
			for _, err := range errs {
				t.Errorf("type-checking %s: %v", path, err)
			}
			prog.byPath[path] = p.types
			prog.pkgs = append(prog.pkgs, p)
			p.recordUses(prog.uses)
		}
	}
	if len(prog.pkgs) == 0 {
		t.Fatal("go list found no packages")
	}
	prog.markDynamicCalls()
	return prog
}

func (prog *program) check(path string, files []*ast.File) (*modPkg, []error) {
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
	var errs []error
	conf := types.Config{Importer: prog, Error: func(err error) { errs = append(errs, err) }}
	pkg, _ := conf.Check(path, prog.fset, files, info)
	return &modPkg{rel: relPath(path), fset: prog.fset, files: files, types: pkg, info: info}, errs
}

// fixture type-checks testdata/reporules/<name>.go as the package its
// "// reporules: as <import path>" line names.
func (prog *program) fixture(t *testing.T, name string) *modPkg {
	t.Helper()
	file := filepath.Join("testdata", "reporules", name+".go")
	f, err := parser.ParseFile(prog.fset, file, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var path string
	for _, c := range f.Comments {
		for _, l := range c.List {
			if s, ok := strings.CutPrefix(l.Text, "// reporules: as "); ok {
				path = strings.TrimSpace(s)
			}
		}
	}
	if path == "" {
		t.Fatalf("%s has no \"// reporules: as <import path>\" line", file)
	}
	p, errs := prog.check(path, []*ast.File{f})
	for _, err := range errs {
		t.Errorf("type-checking %s: %v", file, err)
	}
	return p
}

// wantLines returns the lines of a fixture marked "// want".
func (p *modPkg) wantLines() map[int]bool {
	lines := map[int]bool{}
	for _, c := range p.files[0].Comments {
		for _, l := range c.List {
			if l.Text == "// want" {
				lines[p.fset.Position(l.Pos()).Line] = true
			}
		}
	}
	return lines
}

func relPath(path string) string {
	if path == "openmb" {
		return path
	}
	return strings.TrimPrefix(path, "openmb/")
}

// pos is "file:line", the file relative to the repository root.
func (p *modPkg) pos(pos token.Pos) string {
	at := p.fset.Position(pos)
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, at.Filename); err == nil {
			at.Filename = rel
		}
	}
	return fmt.Sprintf("%s:%d", at.Filename, at.Line)
}

// lookup returns the package-level object name of the module package rel.
func (prog *program) lookup(rel, name string) types.Object {
	p := prog.byPath["openmb/"+rel]
	if p == nil {
		panic("no package " + rel)
	}
	o := p.Scope().Lookup(name)
	if o == nil {
		panic("no " + rel + "." + name)
	}
	return o
}

// method returns the method name of the named type rel.typ.
func (prog *program) method(rel, typ, name string) types.Object {
	o, _, _ := types.LookupFieldOrMethod(types.NewPointer(prog.lookup(rel, typ).Type()), false, prog.byPath["openmb/"+rel], name)
	if o == nil {
		panic("no method " + rel + "." + typ + "." + name)
	}
	return o
}

func isFunc(o types.Object, pkg string, names ...string) bool {
	f, ok := o.(*types.Func)
	return ok && f.Pkg() != nil && f.Pkg().Path() == pkg && slices.Contains(names, f.Name())
}

// receiverIs reports whether o is a method of the named type tn.
func receiverIs(o types.Object, tn types.Object) bool {
	f, ok := o.(*types.Func)
	if !ok {
		return false
	}
	recv := f.Signature().Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj() == tn
}

// usesOf reports every reference in p to an object match accepts.
func (p *modPkg) usesOf(match func(types.Object) bool, msg string) []string {
	var out []string
	for id, o := range p.info.Uses {
		if match(origin(o)) {
			out = append(out, fmt.Sprintf("%s: %s (%s)", p.pos(id.Pos()), msg, id.Name))
		}
	}
	sort.Strings(out)
	return out
}

// mapsKeyedBy reports every map type written in p whose key is key, a local
// alias of it, or a type defined on its underlying type.
func (p *modPkg) mapsKeyedBy(key types.Type, msg string) []string {
	var out []string
	for e, tv := range p.info.Types {
		if !tv.IsType() {
			continue
		}
		m, ok := tv.Type.(*types.Map)
		if !ok {
			continue
		}
		if types.Identical(m.Key(), key) || types.Identical(m.Key().Underlying(), key.Underlying()) {
			out = append(out, fmt.Sprintf("%s: %s (%s)", p.pos(e.Pos()), msg, m))
		}
	}
	sort.Strings(out)
	return out
}

// origin maps an instantiated generic method or field to its declaration.
func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

// A sleep is one non-test reference to time.Sleep and the function around it.
type sleep struct {
	pos token.Pos
	fn  string // "internal/mbox.Runtime.worker", "cmd/openmb-mb.main"
}

func (p *modPkg) sleeps() []sleep {
	var out []sleep
	for _, f := range p.files {
		for _, d := range f.Decls {
			fn := p.rel + ".<package>"
			if fd, ok := d.(*ast.FuncDecl); ok {
				fn = p.rel + "." + funcName(fd)
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && isFunc(p.info.Uses[id], "time", "Sleep") {
					out = append(out, sleep{id.Pos(), fn})
				}
				return true
			})
		}
	}
	return out
}

// funcName is "F" for a function and "T.M" for a method of T or *T.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	return t.(*ast.Ident).Name + "." + fd.Name.Name
}

// recordUses adds every object p's code references to uses. A struct
// literal without keys references all of its fields.
func (p *modPkg) recordUses(uses map[types.Object]bool) {
	for _, o := range p.info.Uses {
		uses[origin(o)] = true
	}
	for e, tv := range p.info.Types {
		lit, ok := e.(*ast.CompositeLit)
		if !ok || len(lit.Elts) == 0 {
			continue
		}
		if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); keyed {
			continue
		}
		if st, ok := tv.Type.Underlying().(*types.Struct); ok {
			for i := range st.NumFields() {
				uses[origin(st.Field(i))] = true
			}
		}
	}
}

// markDynamicCalls records as used every method through which a call on an
// interface may land: for each type a module package declares and each
// interface it implements — one that a module package declares or writes,
// or that a package they import declares — the methods that implement the
// interface's (fmt calling String, the runtime calling a Logic's
// ProcessBurst, promoted from an embedded generic type or not).
func (prog *program) markDynamicCalls() {
	ifaces := map[string][]*types.Interface{}
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || iface.NumMethods() == 0 {
			return
		}
		if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 && named.TypeArgs().Len() == 0 {
			return
		}
		name := iface.Method(0).Name()
		ifaces[name] = append(ifaces[name], iface)
	}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range prog.pkgs {
		walk(p.types)
		for _, tv := range p.info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	for _, p := range prog.pkgs {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			if named, ok := tn.Type().(*types.Named); !ok || named.TypeParams().Len() > 0 {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			ms := types.NewMethodSet(ptr)
			for i := range ms.Len() {
				for _, iface := range ifaces[ms.At(i).Obj().Name()] {
					if !types.Implements(ptr, iface) {
						continue
					}
					for j := range iface.NumMethods() {
						m := iface.Method(j)
						if o, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); o != nil {
							prog.uses[origin(o)] = true
						}
					}
				}
			}
		}
	}
}

// A decl is one exported name: a package-level object, or a method or
// field of an exported type.
type decl struct {
	name string // "internal/packet.FlowKey.Compare"
	obj  types.Object
}

// exported lists p's exported names, if p is under internal/.
func (p *modPkg) exported() []decl {
	if !strings.HasPrefix(p.rel, "internal/") {
		return nil
	}
	var out []decl
	scope := p.types.Scope()
	for _, name := range scope.Names() {
		o := scope.Lookup(name)
		if !o.Exported() {
			continue
		}
		out = append(out, decl{p.rel + "." + name, o})
		tn, ok := o.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named := tn.Type().(*types.Named)
		for i := range named.NumMethods() {
			if m := named.Method(i); m.Exported() {
				out = append(out, decl{p.rel + "." + name + "." + m.Name(), m})
			}
		}
		switch u := named.Underlying().(type) {
		case *types.Struct:
			for i := range u.NumFields() {
				if f := u.Field(i); f.Exported() && !f.Embedded() {
					out = append(out, decl{p.rel + "." + name + "." + f.Name(), f})
				}
			}
		case *types.Interface:
			for i := range u.NumExplicitMethods() {
				if m := u.ExplicitMethod(i); m.Exported() {
					out = append(out, decl{p.rel + "." + name + "." + m.Name(), m})
				}
			}
		}
	}
	return out
}

// optionsExempt are the library packages whose config structs configure no
// deployment: test infrastructure and the offline trace generators.
var optionsExempt = []string{"internal/faults", "internal/bed", "internal/mbox/mbtest", "internal/eval", "internal/trace"}

// options lists the settable fields of p's config structs — the exported
// struct types named Options or Config, or ending in either — as
// "core.Options.QuietPeriod".
func (p *modPkg) options() []decl {
	if !p.library() || slices.Contains(optionsExempt, p.rel) {
		return nil
	}
	var out []decl
	scope := p.types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() || !tn.Exported() || !(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")) {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := range st.NumFields() {
			if f := st.Field(i); f.Exported() {
				out = append(out, decl{p.types.Name() + "." + name + "." + f.Name(), f})
			}
		}
	}
	return out
}

// daemons are the cmd/ mains whose flags flagsList names.
var daemons = []string{"cmd/openmb-controller", "cmd/openmb-mb"}

// A flagDef is one command-line flag a daemon defines.
type flagDef struct {
	name string // "cmd/openmb-mb -codec"
	pos  token.Pos
}

// flags lists the flags p defines through package flag (flag.String,
// flag.DurationVar, a FlagSet's methods, ...), if p is a daemon. A flag
// whose name is not a constant is listed under the name "?".
func (p *modPkg) flags() []flagDef {
	if !slices.Contains(daemons, p.rel) {
		return nil
	}
	var out []flagDef
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !isFunc(p.info.Uses[sel.Sel], "flag", flagDefiners...) {
				return true
			}
			arg := 0
			if strings.HasSuffix(sel.Sel.Name, "Var") {
				arg = 1 // BoolVar(&b, name, ...), Var(value, name, usage)
			}
			name := "?"
			if v := p.info.Types[call.Args[arg]].Value; v != nil && v.Kind() == constant.String {
				name = constant.StringVal(v)
			}
			out = append(out, flagDef{p.rel + " -" + name, call.Pos()})
			return true
		})
	}
	return out
}

// flagDefiners are package flag's functions and FlagSet methods that define
// a flag.
var flagDefiners = []string{
	"Bool", "BoolFunc", "BoolVar", "Duration", "DurationVar", "Float64", "Float64Var",
	"Func", "Int", "Int64", "Int64Var", "IntVar", "String", "StringVar", "TextVar",
	"Uint", "Uint64", "Uint64Var", "UintVar", "Var",
}

// knobRef matches a backquoted "pkg.Type.Field" in the Tuning knobs table,
// with further fields of the same type as " / Field".
var knobRef = regexp.MustCompile("`([a-z]+\\.[A-Z]\\w*)\\.([A-Z]\\w*(?: / [A-Z]\\w*)*)`")

// flagRef matches a backquoted "cmd/main -flag" in the Tuning knobs table,
// with further flags of the same mains as " / -flag" and several mains as
// "cmd/{a,b}".
var flagRef = regexp.MustCompile("`cmd/(\\{[a-z,-]+\\}|[a-z-]+) (-[a-z][a-z0-9-]*(?: / -[a-z][a-z0-9-]*)*)`")

// tuningKnobs returns the config fields and the daemon flags ("cmd/openmb-mb
// -codec") the "Tuning knobs" table of the Markdown file doc names in its
// first column.
func tuningKnobs(doc string) (options, flags map[string]bool, err error) {
	b, err := os.ReadFile(doc)
	if err != nil {
		return nil, nil, err
	}
	_, table, ok := strings.Cut(string(b), "\n## Tuning knobs\n")
	if !ok {
		return nil, nil, fmt.Errorf("%s has no Tuning knobs section", doc)
	}
	table, _, _ = strings.Cut(table, "\n## ")
	options, flags = map[string]bool{}, map[string]bool{}
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			continue
		}
		for _, m := range knobRef.FindAllStringSubmatch(cells[1], -1) {
			for _, field := range strings.Split(m[2], " / ") {
				options[m[1]+"."+field] = true
			}
		}
		for _, m := range flagRef.FindAllStringSubmatch(cells[1], -1) {
			for _, main := range strings.Split(strings.Trim(m[1], "{}"), ",") {
				for _, f := range strings.Split(m[2], " / ") {
					flags["cmd/"+main+" "+f] = true
				}
			}
		}
	}
	return options, flags, nil
}
