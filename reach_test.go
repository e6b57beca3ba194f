package webharmony

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names the non-test declarations and struct fields outside
// bench/ that stay although no program reaches or reads them. Each reason
// names a test that reads the entry; TestReachability fails when an entry
// is reached or read again, or no longer declared, so the list cannot go
// stale. The three fields are fault detectors: their tests catch pooled
// records leaking or being freed twice, and a cache directory drifting from
// its lists.
var reachAllowlist = map[string]string{
	"internal/harmony.Session.History": "core's TestFigure5SpeculativeMatchesSequential compares every session's history record for record",
	"internal/monitor.Timeline.Points": "core's TestFigure7TimelineRecorded reads the recorded utilization timeline",
	"internal/simnet.Engine.Run":       "TestPipelineFingerprintGolden and about 70 other test call sites in 12 packages drain an engine with it",
	"internal/tpcw.Driver.Stop":        "websim's TestPipelineFingerprintGolden and TestPoolChurnStress stop the browsers before draining in-flight pages",

	"internal/proxy.Cache.count":       "proxy's TestCacheMatchesOracle checks it against the directory and disk list through checkInvariants",
	"internal/websim.System.livePages": "websim's TestPoolChurnStress checks that no page record leaks or is freed twice",
	"internal/websim.System.liveObjs":  "websim's TestPoolChurnStress checks that no object record leaks or is freed twice",
}

// TestReachability fails on production code that only tests call or read. It
// type-checks both modules (this one and bench/) from source and walks what
// their programs reach, starting from every main of cmd/, examples/ and
// bench/cmd/webbench, every init function and package-level var
// initialiser, and every package-level name the webharmony facade exports.
// A call through an interface reaches the method of that name on every
// reached type that implements the interface; String, Error, MarshalJSON
// and UnmarshalJSON count as reached on every reached type, because the
// standard library calls them. Any other non-test declaration outside
// bench/ that is not reached must be in reachAllowlist. So must every field
// of a reached struct type that reached code writes but never reads; see
// fieldWrites for what does not count as a read.
func TestReachability(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks both modules from source; skipped in -short mode")
	}
	goTool := filepath.Join(os.Getenv("GOROOT"), "bin", "go")
	if _, err := exec.LookPath(goTool); err != nil {
		goTool = "go"
		if _, err := exec.LookPath(goTool); err != nil {
			t.Skipf("go tool not available: %v", err)
		}
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	listed, err := listPackages(goTool, root)
	if err != nil {
		t.Fatal(err)
	}
	benchListed, err := listPackages(goTool, filepath.Join(root, "bench"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := loadReachGraph(append(listed, benchListed...))
	if err != nil {
		t.Fatal(err)
	}
	g.walk()

	var unreached []string
	declared := map[string]bool{} // counted declaration name → reached
	for _, d := range g.decls {
		if !d.counted {
			continue
		}
		reached := g.reached[d.obj]
		declared[d.name] = declared[d.name] || reached
		if _, ok := reachAllowlist[d.name]; !reached && !ok {
			unreached = append(unreached, fmt.Sprintf("%s (%s)", d.name, g.fset.Position(d.obj.Pos())))
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("no program reaches %s: delete it, or allowlist it with the test that reads it", u)
	}
	for _, f := range g.fields {
		declared[f.name] = g.read[f.obj]
	}
	for _, f := range g.unreadFields() {
		if _, ok := reachAllowlist[f.name]; !ok {
			t.Errorf("no program reads field %s (%s): delete it, or allowlist it with the test that reads it", f.name, g.fset.Position(f.obj.Pos()))
		}
	}

	testFuncs := g.testFuncNames()
	names := make([]string, 0, len(reachAllowlist))
	for name := range reachAllowlist {
		names = append(names, name)
	}
	sort.Strings(names)
	testName := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)\w*`)
	for _, name := range names {
		reached, ok := declared[name]
		switch {
		case !ok:
			t.Errorf("allowlisted %s is no longer declared: drop its entry", name)
		case reached:
			t.Errorf("allowlisted %s is reached by a program now: drop its entry", name)
		}
		reason := reachAllowlist[name]
		m := testName.FindString(reason)
		if m == "" || !testFuncs[m] {
			t.Errorf("allowlist reason for %s must name an existing test that reads it: %q", name, reason)
		}
	}
}

// TestReachabilityFieldRules runs the field gate on a planted program and
// checks what it takes for a read: write-only fields fail it, while fields
// read by json, through an interface, as a map key, by a conversion or as
// the base of a write through a pointer pass.
func TestReachabilityFieldRules(t *testing.T) {
	const src = `package main

type counters struct {
	hits  int // read by main
	peak  int // written; read only by the if q > s.peak { s.peak = q } idiom
	total int // written; read only inside assignments to itself
	Tag   int ` + "`json:\"tag\"`" + `
}

type server struct{ stats stats } // stats is written through s.stats.done++
type stats struct{ done int }

type report struct{ Cost float64 }   // only writeJSON reads it, as any
type key struct{ a, b int }          // a map key: lookups compare both
type wide struct{ x int }            // converted to narrow
type narrow struct{ x int }          // read by main
type frame struct{ eng *engine }     // eng is the base of a write
type engine struct{ cur *frame }     // cur is written, never read

func writeJSON(v any) { _ = v }

func main() {
	c := &counters{total: 1}
	c.hits++
	if c.hits > c.peak {
		c.peak = c.hits
	}
	c.total = c.total + c.hits
	c.Tag = 2
	var s server
	s.stats.done++
	writeJSON(&report{Cost: 1})
	m := map[key]int{}
	m[key{1, 2}]++
	f := &frame{eng: &engine{}}
	f.eng.cur = f
	println(c.hits, m[key{}], narrow(wide{x: 1}).x)
}
`
	g := newReachGraph()
	file, err := parser.ParseFile(g.fset, "planted.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := newReachInfo()
	pkg, err := (&types.Config{}).Check("webharmony/planted", g.fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatal(err)
	}
	p := listedPackage{ImportPath: "webharmony/planted", Name: "main", Module: &struct{ Path string }{reachModule}}
	g.addPackage(p, pkg, []*ast.File{file}, info, true)
	g.walk()
	var got []string
	for _, f := range g.unreadFields() {
		got = append(got, f.name)
	}
	sort.Strings(got)
	want := []string{"planted.counters.peak", "planted.counters.total", "planted.engine.cur", "planted.server.stats", "planted.stats.done"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("unread fields = %v, want %v", got, want)
	}
}

// listedPackage is the part of `go list -json` output the walk needs.
type listedPackage struct {
	ImportPath   string
	Dir          string
	Name         string
	Export       string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Module       *struct{ Path string }
}

// listPackages lists every package of the module in dir and all their
// dependencies, dependencies first, with export data for the standard
// library.
func listPackages(goTool, dir string) ([]listedPackage, error) {
	cmd := exec.Command(goTool, "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// reachDecl is one package-level declaration of a module package, or (with
// a nil obj) one root: an init function or a var initialiser.
type reachDecl struct {
	obj     types.Object
	name    string     // e.g. "internal/simnet.Station.Reset"
	nodes   []ast.Node // the syntax whose references the declaration reaches
	info    *types.Info
	counted bool // declared outside bench/, so the gate reports it
}

// reachField is one field of a package-level struct type of a counted
// package. Embedded fields and fields with a json tag are not recorded: the
// first are read by every promoted selection, the second by encoding/json.
type reachField struct {
	obj   *types.Var
	owner types.Object // the struct type's declaration
	name  string       // e.g. "internal/simnet.Station.queue"
}

type reachGraph struct {
	fset     *token.FileSet
	decls    []*reachDecl
	fields   []*reachField
	read     map[*types.Var]bool   // fields reached code reads
	readAll  map[*types.Named]bool // types readExported has walked
	byObj    map[types.Object]*reachDecl
	named    []*types.Named // module-declared types that can implement an interface
	reached  map[types.Object]bool
	queue    []*reachDecl         // reached, not yet scanned
	called   map[*types.Func]bool // interface methods called by reached code
	testDirs map[string][]string  // package dir → its test files
}

const reachModule = "webharmony"

// stdlibCalled lists the methods the standard library calls through its own
// interfaces (fmt.Stringer, error, json.Marshaler, json.Unmarshaler).
var stdlibCalled = map[string]bool{"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true}

func newReachGraph() *reachGraph {
	return &reachGraph{
		fset:     token.NewFileSet(),
		byObj:    map[types.Object]*reachDecl{},
		reached:  map[types.Object]bool{},
		read:     map[*types.Var]bool{},
		readAll:  map[*types.Named]bool{},
		called:   map[*types.Func]bool{},
		testDirs: map[string][]string{},
	}
}

func loadReachGraph(listed []listedPackage) (*reachGraph, error) {
	g := newReachGraph()
	exports := map[string]string{}
	var own []listedPackage
	seen := map[string]bool{}
	for _, p := range listed {
		if seen[p.ImportPath] {
			continue
		}
		seen[p.ImportPath] = true
		if p.Module == nil || !strings.HasPrefix(p.Module.Path, reachModule) {
			exports[p.ImportPath] = p.Export
			continue
		}
		own = append(own, p)
	}
	gc := importer.ForCompiler(g.fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return gc.Import(path)
	})
	for _, p := range own {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(g.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := newReachInfo()
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, g.fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		counted := p.Module.Path == reachModule
		g.testDirs[p.Dir] = append(p.TestGoFiles, p.XTestGoFiles...)
		g.addPackage(p, pkg, files, info, counted)
	}
	return g, nil
}

func newReachInfo() *types.Info {
	return &types.Info{
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// addPackage records the package's declarations and roots.
func (g *reachGraph) addPackage(p listedPackage, pkg *types.Package, files []*ast.File, info *types.Info, counted bool) {
	rel := strings.TrimPrefix(strings.TrimPrefix(p.ImportPath, reachModule), "/")
	if rel == "" {
		rel = reachModule
	}
	facade := p.ImportPath == reachModule
	add := func(obj types.Object, name string, nodes ...ast.Node) {
		d := &reachDecl{obj: obj, name: rel + "." + name, nodes: nodes, info: info, counted: counted}
		g.decls = append(g.decls, d)
		g.byObj[obj] = d
		if facade && obj.Exported() && obj.Parent() == pkg.Scope() {
			g.mark(obj)
		}
	}
	root := func(n ast.Node) { g.queue = append(g.queue, &reachDecl{nodes: []ast.Node{n}, info: info}) }
	for _, f := range files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				obj := info.Defs[decl.Name].(*types.Func)
				name := decl.Name.Name
				if decl.Recv != nil {
					name = recvName(decl.Recv.List[0].Type) + "." + name
				}
				if decl.Recv == nil && name == "init" {
					root(decl)
					continue
				}
				add(obj, name, decl)
				if decl.Recv == nil && name == "main" && p.Name == "main" {
					g.mark(obj)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						obj := info.Defs[spec.Name]
						add(obj, spec.Name.Name, spec)
						if st, ok := obj.Type().Underlying().(*types.Struct); ok && counted {
							for i := 0; i < st.NumFields(); i++ {
								f := st.Field(i)
								if f.Embedded() || reflect.StructTag(st.Tag(i)).Get("json") != "" {
									continue
								}
								g.fields = append(g.fields, &reachField{obj: f, owner: obj, name: rel + "." + spec.Name.Name + "." + f.Name()})
							}
						}
						// Generic types stay out of interface dispatch: a
						// method only they reach through an interface would
						// be reported, not silently kept.
						if n, ok := obj.Type().(*types.Named); ok && n.TypeParams().Len() == 0 && !types.IsInterface(n) {
							g.named = append(g.named, n)
						}
					case *ast.ValueSpec:
						if decl.Tok == token.VAR {
							for _, v := range spec.Values {
								root(v)
							}
						}
						for _, id := range spec.Names {
							if id.Name == "_" {
								continue
							}
							var nodes []ast.Node
							if spec.Type != nil {
								nodes = append(nodes, spec.Type)
							}
							if decl.Tok == token.CONST {
								for _, v := range spec.Values {
									nodes = append(nodes, v)
								}
							}
							add(info.Defs[id], id.Name, nodes...)
						}
					}
				}
			}
		}
	}
}

func recvName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}

// mark reaches obj (a module declaration; anything else is ignored).
func (g *reachGraph) mark(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	d := g.byObj[obj]
	if d == nil || g.reached[obj] {
		return
	}
	g.reached[obj] = true
	g.queue = append(g.queue, d)
}

// scan reaches everything node refers to, records interface calls and
// records the fields node reads.
func (g *reachGraph) scan(node ast.Node, info *types.Info) {
	notRead := fieldWrites(node, info)
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			g.scanCall(n, info)
		case *ast.MapType:
			// A map compares its keys, which reads every key field.
			g.readStructFields(info.TypeOf(n).(*types.Map).Key())
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				g.readStructFields(info.TypeOf(n.X))
			}
		case *ast.Ident:
			obj := info.Uses[n]
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					g.called[fn] = true
					return true
				}
			}
			if v, ok := obj.(*types.Var); ok && v.IsField() && !notRead[n] {
				g.read[v.Origin()] = true
			}
			if obj != nil {
				g.mark(obj)
			}
		}
		return true
	})
}

// scanCall marks the fields a call reads as a whole: those of a struct value
// converted to another struct type, and those of a value converted to or
// passed as an empty interface.
func (g *reachGraph) scanCall(call *ast.CallExpr, info *types.Info) {
	tv := info.Types[call.Fun]
	if tv.IsType() {
		if _, ok := tv.Type.Underlying().(*types.Struct); ok {
			g.readStructFields(info.TypeOf(call.Args[0]))
		} else if isEmptyInterface(tv.Type) {
			g.readAsAny(info.TypeOf(call.Args[0]))
		}
		return
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type()
			if s, ok := pt.(*types.Slice); ok && !call.Ellipsis.IsValid() {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if isEmptyInterface(pt) {
			g.readAsAny(info.TypeOf(arg))
		}
	}
}

// readAsAny marks the fields read of a value stored in an empty interface:
// encoding/json may export it, and sync.Map or == may compare it.
func (g *reachGraph) readAsAny(t types.Type) {
	g.readExported(t)
	g.readStructFields(t)
}

// isEmptyInterface reports whether t is an interface without methods, such
// as any: code that takes one can only look inside a value by reflection.
func isEmptyInterface(t types.Type) bool {
	i, ok := t.Underlying().(*types.Interface)
	return ok && i.NumMethods() == 0
}

// readStructFields marks every field of t read when t is a struct or an
// array of structs, as comparing or converting two such values does.
func (g *reachGraph) readStructFields(t types.Type) {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			g.read[u.Field(i).Origin()] = true
			g.readStructFields(u.Field(i).Type())
		}
	case *types.Array:
		g.readStructFields(u.Elem())
	}
}

// readExported marks the fields that encoding/json reads from a value of
// type t: the exported fields not tagged json:"-", through pointers,
// slices, arrays and maps.
func (g *reachGraph) readExported(t types.Type) {
	if t == nil || types.IsInterface(t) {
		return
	}
	if n, ok := t.(*types.Named); ok {
		if g.readAll[n] {
			return
		}
		g.readAll[n] = true
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		g.readExported(u.Elem())
	case *types.Slice:
		g.readExported(u.Elem())
	case *types.Array:
		g.readExported(u.Elem())
	case *types.Map:
		g.readExported(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			if f.Exported() && reflect.StructTag(u.Tag(i)).Get("json") != "-" {
				g.read[f.Origin()] = true
				g.readExported(f.Type())
			}
		}
	}
}

// fieldWrites returns the field selections in node that are not reads:
//   - the field that an assignment, ++, -- or op= writes, and each
//     struct-valued field it is selected through (s.stats.n++ writes stats
//     too); a field selected through a pointer, slice or map on the way
//     to the written one is read;
//   - a composite-literal key;
//   - a read of a field inside an assignment to that same field;
//   - a read of a field in the condition of an if statement whose body
//     only assigns that field (if q > s.peak { s.peak = q }).
func fieldWrites(node ast.Node, info *types.Info) map[*ast.Ident]bool {
	skip := map[*ast.Ident]bool{}
	selfReads := func(n ast.Node, written map[*types.Var]bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok && written[v.Origin()] {
					skip[id] = true
				}
			}
			return true
		})
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			written := map[*types.Var]bool{}
			for _, l := range n.Lhs {
				writtenFields(l, info, skip, written)
			}
			for _, r := range n.Rhs {
				selfReads(r, written)
			}
		case *ast.IncDecStmt:
			writtenFields(n.X, info, skip, map[*types.Var]bool{})
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
					skip[id] = true
				}
			}
		case *ast.IfStmt:
			if n.Init != nil || n.Else != nil || len(n.Body.List) == 0 {
				return true
			}
			written := map[*types.Var]bool{}
			for _, st := range n.Body.List {
				a, ok := st.(*ast.AssignStmt)
				if !ok {
					return true
				}
				for _, l := range a.Lhs {
					if !writtenFields(l, info, map[*ast.Ident]bool{}, written) {
						return true
					}
				}
			}
			if len(written) == 1 {
				selfReads(n.Cond, written)
			}
		}
		return true
	})
	return skip
}

// writtenFields records in skip and written the fields that an assignment
// to e writes, and reports whether e is a field.
func writtenFields(e ast.Expr, info *types.Info, skip map[*ast.Ident]bool, written map[*types.Var]bool) bool {
	isField := false
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			v, ok := info.Uses[x.Sel].(*types.Var)
			if !ok || !v.IsField() {
				return isField
			}
			isField = true
			skip[x.Sel] = true
			written[v.Origin()] = true
			if _, ok := info.TypeOf(x.X).Underlying().(*types.Struct); !ok {
				return true
			}
			e = x.X
		case *ast.IndexExpr:
			if _, ok := info.TypeOf(x.X).Underlying().(*types.Array); !ok {
				return isField
			}
			e = x.X
		default:
			return isField
		}
	}
}

// unreadFields returns the recorded fields of reached types that no reached
// code reads.
func (g *reachGraph) unreadFields() []*reachField {
	var out []*reachField
	for _, f := range g.fields {
		if g.reached[f.owner] && !g.read[f.obj] {
			out = append(out, f)
		}
	}
	return out
}

// walk runs the reachability fixpoint: scan every root and reached
// declaration, then resolve the interface calls seen so far against every
// reached type, until nothing new is reached.
func (g *reachGraph) walk() {
	for {
		for len(g.queue) > 0 {
			d := g.queue[0]
			g.queue = g.queue[1:]
			for _, n := range d.nodes {
				g.scan(n, d.info)
			}
		}
		for _, n := range g.named {
			if !g.reached[n.Obj()] {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(n))
			for i := 0; i < ms.Len(); i++ {
				m := ms.At(i).Obj().(*types.Func)
				if stdlibCalled[m.Name()] || g.implementsCalled(n, m.Name()) {
					g.mark(m)
				}
			}
		}
		if len(g.queue) == 0 {
			return
		}
	}
}

// implementsCalled reports whether a called interface method of this name
// belongs to an interface that n (or *n) implements.
func (g *reachGraph) implementsCalled(n *types.Named, name string) bool {
	for fn := range g.called {
		if fn.Name() != name {
			continue
		}
		iface, ok := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		if types.Implements(n, iface) || types.Implements(types.NewPointer(n), iface) {
			return true
		}
	}
	return false
}

// testFuncNames collects the Test, Benchmark and Fuzz functions declared in
// the test files of every module package.
func (g *reachGraph) testFuncNames() map[string]bool {
	names := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	for dir, files := range g.testDirs {
		for _, f := range files {
			src, err := os.ReadFile(filepath.Join(dir, f))
			if err != nil {
				continue
			}
			for _, m := range decl.FindAllSubmatch(src, -1) {
				names[string(m[1])] = true
			}
		}
	}
	return names
}
