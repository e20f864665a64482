//go:build ignore

// Dead-export gate: fails when an exported name in internal/ is
// referenced by no non-test Go code, so that an operation, helper or
// type that only its own tests reach does not stay in the tree.
//
// Every non-test Go file counts as a caller: the internal packages
// themselves, the root facade, cmd/, the separate perfbench module
// (whose every call must keep compiling) and each `//go:build ignore`
// file under scripts/, checked as its own main package. The packages
// are type-checked from source with go/types; the standard library
// comes through the source importer. Checked are every exported
// top-level name and every exported method of a package-level type in
// internal/. A use inside the name's own declaration, or a type's
// mention in its own methods' receivers, does not count. A method also
// counts as referenced when its type, or a pointer to it, implements
// an interface whose method of that name non-test code uses. String
// methods are exempt: fmt calls them by reflection.
//
// scripts/deadexports.allow lists names kept on purpose, one per line
// as `pkg.Name  reason` (`pkg.Type.Method` for a method); blank lines
// and lines starting with # are ignored. An entry without a reason, an
// entry whose name is referenced after all, and an entry that names no
// exported declaration all fail the gate, so the list cannot rot.
//
// Run from the repo root: `go run scripts/deadexports.go`. It prints
// `pkg.Name file:line` for each unreferenced name and exits 1 when it
// finds any or when the allow list is stale, 2 on a load error, and 0
// otherwise. scripts/check.sh runs it.
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const allowFile = "scripts/deadexports.allow"

// loaded is one type-checked package with the syntax it came from.
type loaded struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// loader type-checks module packages from source, once each, and hands
// standard-library imports to the source importer. Sharing one loader
// makes a name declared in internal/ the same object in every caller.
type loader struct {
	fset   *token.FileSet
	root   string // repo root
	module string // module path from go.mod
	std    types.Importer
	pkgs   map[string]*loaded
	all    []*loaded // every package checked, in load order
}

func (l *loader) Import(path string) (*types.Package, error) {
	if path != l.module && !strings.HasPrefix(path, l.module+"/") {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p.pkg, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.module)))
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no Go files in %s", path, dir)
	}
	p, err := l.check(path, files)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p.pkg, nil
}

// parseDir parses the non-test files of dir that build for this
// GOOS/GOARCH, which leaves out `//go:build ignore` files.
func (l *loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func (l *loader) check(path string, files []*ast.File) (*loaded, error) {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &loaded{pkg: pkg, files: files, info: info}
	l.all = append(l.all, p)
	return p, nil
}

// span is a half-open source range.
type span struct{ pos, end token.Pos }

func (s span) contains(p token.Pos) bool { return s.pos <= p && p < s.end }

// candidate is one exported name under test.
type candidate struct {
	obj  types.Object
	key  string // pkg.Name or pkg.Type.Method
	decl span   // its own declaration; uses inside it do not count
}

func main() {
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		fatal(err)
	}
	fset := token.NewFileSet()
	l := &loader{
		fset:   fset,
		root:   root,
		module: module,
		std:    importer.ForCompiler(fset, "source", nil),
		pkgs:   map[string]*loaded{},
	}

	// Load every package directory of the module and of perfbench,
	// then each ignore-tagged script on its own.
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "scripts") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		fatal(err)
	}
	for _, dir := range dirs {
		files, err := l.parseDir(dir)
		if err != nil {
			fatal(err)
		}
		if len(files) == 0 {
			continue
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			fatal(err)
		}
		path := module
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		if _, err := l.Import(path); err != nil {
			fatal(err)
		}
	}
	scripts, err := filepath.Glob(filepath.Join(root, "scripts", "*.go"))
	if err != nil {
		fatal(err)
	}
	for _, s := range scripts {
		f, err := parser.ParseFile(fset, s, nil, parser.SkipObjectResolution)
		if err != nil {
			fatal(err)
		}
		if _, err := l.check("main", []*ast.File{f}); err != nil {
			fatal(err)
		}
	}

	cands, receivers := candidates(l, module+"/internal/")
	byObj := map[types.Object]*candidate{}
	for _, c := range cands {
		byObj[c.obj] = c
	}

	// Collect the non-test uses, and the interface methods called.
	used := map[types.Object]bool{}
	ifaceUses := map[string][]*types.Interface{}
	for _, p := range l.all {
		for id, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					if it, ok := recv.Type().Underlying().(*types.Interface); ok {
						ifaceUses[fn.Name()] = append(ifaceUses[fn.Name()], it)
					}
				}
			}
			c := byObj[obj]
			if c == nil || c.decl.contains(id.Pos()) || inAny(receivers, id.Pos()) {
				continue
			}
			used[obj] = true
		}
	}
	for _, c := range cands {
		fn, ok := c.obj.(*types.Func)
		if !ok || used[c.obj] {
			continue
		}
		sig := fn.Type().(*types.Signature)
		if sig.Recv() == nil {
			continue
		}
		recv := sig.Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		for _, it := range ifaceUses[fn.Name()] {
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				used[c.obj] = true
				break
			}
		}
	}

	allow, err := readAllow(filepath.Join(root, allowFile))
	if err != nil {
		fatal(err)
	}
	known := map[string]*candidate{}
	failed := false
	for _, c := range cands {
		known[c.key] = c
		if used[c.obj] {
			continue
		}
		if _, ok := allow[c.key]; ok {
			continue
		}
		pos := fset.Position(c.obj.Pos())
		file, _ := filepath.Rel(root, pos.Filename)
		fmt.Printf("%s %s:%d\n", c.key, filepath.ToSlash(file), pos.Line)
		failed = true
	}
	for _, key := range sortedKeys(allow) {
		e := allow[key]
		switch c := known[key]; {
		case e.reason == "":
			fmt.Printf("%s:%d: %s has no reason\n", allowFile, e.line, key)
		case c == nil:
			fmt.Printf("%s:%d: %s names no exported declaration in internal/\n", allowFile, e.line, key)
		case used[c.obj]:
			fmt.Printf("%s:%d: %s is referenced by non-test code; drop the entry\n", allowFile, e.line, key)
		default:
			continue
		}
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// candidates lists the exported top-level names and the exported
// methods of the packages under prefix, sorted by position, and the
// receiver lists of every method there.
func candidates(l *loader, prefix string) ([]*candidate, []span) {
	var cands []*candidate
	var receivers []span
	for _, p := range l.all {
		if !strings.HasPrefix(p.pkg.Path(), prefix) {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				cands, receivers = declared(p.pkg, decl, cands, receivers)
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].obj.Pos() < cands[j].obj.Pos() })
	return cands, receivers
}

func declared(pkg *types.Package, decl ast.Decl, cands []*candidate, receivers []span) ([]*candidate, []span) {
	add := func(obj types.Object, key string, node ast.Node) {
		if obj != nil && obj.Exported() {
			cands = append(cands, &candidate{obj: obj, key: pkg.Name() + "." + key, decl: span{node.Pos(), node.End()}})
		}
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			add(pkg.Scope().Lookup(d.Name.Name), d.Name.Name, d)
			break
		}
		receivers = append(receivers, span{d.Recv.Pos(), d.Recv.End()})
		if !d.Name.IsExported() || d.Name.Name == "String" {
			break
		}
		tn := recvTypeName(d.Recv.List[0].Type)
		named, ok := pkg.Scope().Lookup(tn).Type().(*types.Named)
		if !ok {
			break
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Name() == d.Name.Name {
				add(m, tn+"."+m.Name(), d)
			}
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				add(pkg.Scope().Lookup(s.Name.Name), s.Name.Name, s)
			case *ast.ValueSpec:
				for _, n := range s.Names {
					add(pkg.Scope().Lookup(n.Name), n.Name, s)
				}
			}
		}
	}
	return cands, receivers
}

// recvTypeName returns the type name of a method receiver expression:
// T, *T, T[P] or *T[P].
func recvTypeName(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.ParenExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

func inAny(spans []span, p token.Pos) bool {
	for _, s := range spans {
		if s.contains(p) {
			return true
		}
	}
	return false
}

type allowEntry struct {
	reason string
	line   int
}

// readAllow reads the allow list; a missing file is an empty list.
func readAllow(path string) (map[string]allowEntry, error) {
	allow := map[string]allowEntry{}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return allow, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key := strings.Fields(line)[0]
		reason := strings.TrimSpace(line[len(key):])
		if _, dup := allow[key]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", allowFile, n, key)
		}
		allow[key] = allowEntry{reason: strings.TrimSpace(reason), line: n}
	}
	return allow, sc.Err()
}

func sortedKeys(m map[string]allowEntry) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "deadexports:", err)
	os.Exit(2)
}
