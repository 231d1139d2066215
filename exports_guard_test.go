package pesto

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// exportsAllowlist names every finding of TestNoUnusedExports that is
// kept on purpose, one per line: "path Name reason".
const exportsAllowlist = "testdata/exports_allowlist.txt"

// allowReason is the fixed set of reasons an allowlist line may give.
var allowReason = regexp.MustCompile(`^(differential-twin|fuzz-target|interface-method|documented-facade|test-seam: (Test|Fuzz|Benchmark)\w+)$`)

// defaultingMethod is the method that fills a struct's zero fields with
// their defaults; an assignment inside it does not count as setting the
// field.
const defaultingMethod = "withDefaults"

// TestNoUnusedExports keeps deleted code deleted. It parses every non-test
// .go file of the module (skipping testdata and hidden directories such as
// .bench_build) and reports
//
//  1. exported functions and methods that no non-test file references, and
//  2. exported fields of exported *Options/*Config structs that no non-test
//     file sets, by composite-literal key, by assignment, by ++/-- or by
//     taking their address (flag.IntVar(&cfg.F, ...)), outside the
//     struct's own defaulting method. Fields with a json tag are a wire
//     format, set by its decoder, and are not checked.
//
// Each finding must have a line in testdata/exports_allowlist.txt, and each
// line must still match a finding, so the list can only shrink.
//
// The scan is name-based (go/parser and go/ast, no type checking): a
// reference or a set of any identifier with the same name counts, wherever
// it is. A name collision (two packages' Seed fields, a method and a field
// both called Reset) can therefore hide a finding, but never invents one.
// A function's references to its own name inside its body are taken for
// recursion and do not count, except package-qualified ones, so a facade
// wrapper's call to the function it wraps is a use.
func TestNoUnusedExports(t *testing.T) {
	findings, err := scanExports(".")
	if err != nil {
		t.Fatal(err)
	}
	allowed, err := readExportsAllowlist(exportsAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	testNames, err := testFuncNames(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if _, ok := allowed[f]; !ok {
			t.Errorf("%s: %s is not used (or, for an option field, not set) outside tests; delete it, or add %q to %s",
				f.path, f.name, f.path+" "+f.name+" <reason>", exportsAllowlist)
		}
	}
	found := make(map[finding]bool, len(findings))
	for _, f := range findings {
		found[f] = true
	}
	for f, reason := range allowed {
		if !found[f] {
			t.Errorf("%s: stale line %q: %s is gone or now used; delete the line", exportsAllowlist, f.path+" "+f.name, f.name)
		}
		if !allowReason.MatchString(reason) {
			t.Errorf("%s: %s %s: reason %q is not one of differential-twin, fuzz-target, test-seam: <TestName>, interface-method, documented-facade",
				exportsAllowlist, f.path, f.name, reason)
		}
		if name, ok := strings.CutPrefix(reason, "test-seam: "); ok && !testNames[name] {
			t.Errorf("%s: %s %s: no test named %s", exportsAllowlist, f.path, f.name, name)
		}
	}
}

// finding is one unused export: a function ("Name"), a method
// ("Recv.Name") or an option field ("Struct.Field").
type finding struct{ path, name string }

// fieldSet records one place an option-like field name is written.
type fieldSet struct{ recv, fn string }

func scanExports(root string) ([]finding, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		paths = append(paths, filepath.ToSlash(path))
		return nil
	})
	if err != nil {
		return nil, err
	}

	type field struct {
		finding
		owner, member string
	}
	var funcs []finding
	var fields []field
	refs := map[string]bool{}
	sets := map[string][]fieldSet{}
	for i, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() {
					funcs = append(funcs, finding{paths[i], qualified(recvName(d), d.Name.Name)})
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					ts, ok := s.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() || !optionLike(ts.Name.Name) {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, fl := range st.Fields.List {
						for _, n := range fl.Names {
							if n.IsExported() && !wireField(fl) {
								fields = append(fields, field{finding{paths[i], ts.Name.Name + "." + n.Name}, ts.Name.Name, n.Name})
							}
						}
					}
				}
			}
		}
		collectUses(f, refs, sets)
	}

	var out []finding
	for _, fn := range funcs {
		name := fn.name[strings.LastIndexByte(fn.name, '.')+1:]
		if !refs[name] {
			out = append(out, fn)
		}
	}
	for _, fd := range fields {
		set := false
		for _, s := range sets[fd.member] {
			if s.recv != fd.owner || s.fn != defaultingMethod {
				set = true
				break
			}
		}
		if !set {
			out = append(out, fd.finding)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].path != out[b].path {
			return out[a].path < out[b].path
		}
		return out[a].name < out[b].name
	})
	return out, nil
}

// collectUses adds to refs every identifier f uses as a value (not the
// name of a declaration, a struct field or a composite-literal key, and
// not a function's reference to itself), and to sets every field name f
// writes, with the function it is written in.
func collectUses(f *ast.File, refs map[string]bool, sets map[string][]fieldSet) {
	decls := map[*ast.Ident]bool{}
	imports := map[string]bool{}
	for _, im := range f.Imports {
		path := strings.Trim(im.Path.Value, `"`)
		name := path[strings.LastIndexByte(path, '/')+1:]
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = true
	}
	for _, d := range f.Decls {
		var recv, fn string
		if fd, ok := d.(*ast.FuncDecl); ok {
			recv, fn = recvName(fd), fd.Name.Name
			decls[fd.Name] = true
		}
		ast.Inspect(d, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				decls[n.Name] = true
			case *ast.Field:
				for _, id := range n.Names {
					decls[id] = true
				}
			case *ast.ValueSpec:
				for _, id := range n.Names {
					decls[id] = true
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					decls[id] = true
					sets[id.Name] = append(sets[id.Name], fieldSet{recv, fn})
				}
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, l := range n.Lhs {
						if sel, ok := l.(*ast.SelectorExpr); ok {
							sets[sel.Sel.Name] = append(sets[sel.Sel.Name], fieldSet{recv, fn})
						}
					}
				}
			case *ast.SelectorExpr:
				// A wrapper's call to the function it wraps, pesto.Place
				// calling placement.Place, is a use and not recursion.
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] {
					refs[n.Sel.Name] = true
				}
			case *ast.IncDecStmt:
				if sel, ok := n.X.(*ast.SelectorExpr); ok {
					sets[sel.Sel.Name] = append(sets[sel.Sel.Name], fieldSet{recv, fn})
				}
			case *ast.UnaryExpr:
				if sel, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
					sets[sel.Sel.Name] = append(sets[sel.Sel.Name], fieldSet{recv, fn})
				}
			case *ast.Ident:
				if !decls[n] && n.Name != fn {
					refs[n.Name] = true
				}
			}
			return true
		})
	}
}

func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func qualified(recv, name string) string {
	if recv == "" {
		return name
	}
	return recv + "." + name
}

// wireField reports whether a field carries a json tag: a wire format's
// decoder sets it, not Go code.
func wireField(f *ast.Field) bool {
	return f.Tag != nil && strings.Contains(f.Tag.Value, `json:"`)
}

func optionLike(name string) bool {
	return strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")
}

func readExportsAllowlist(path string) (map[finding]string, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	out := map[finding]string{}
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.SplitN(line, " ", 3)
		if len(parts) < 3 {
			parts = append(parts, "")
		}
		out[finding{parts[0], parts[1]}] = strings.TrimSpace(parts[2])
	}
	return out, sc.Err()
}

// testFuncNames returns the Test, Fuzz and Benchmark function names
// declared in the module's _test.go files, so a test-seam line can be
// checked against a test that exists.
func testFuncNames(root string) (map[string]bool, error) {
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w+)\(`)
	out := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(b, -1) {
			out[string(m[1])] = true
		}
		return nil
	})
	return out, err
}
