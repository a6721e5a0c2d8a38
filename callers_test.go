package vab

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// uncalledAllowed lists the exported functions and methods of the main
// module that no non-test file calls by name, each kept on purpose. Keys
// are pkg.Name or pkg.Recv.Name.
var uncalledAllowed = map[string]string{
	"netmem.Conn.LocalAddr":         "net.Conn method; callers hold a net.Conn",
	"netmem.Conn.SetDeadline":       "net.Conn method; callers hold a net.Conn",
	"netmem.Addr.Network":           "net.Addr method; callers hold a net.Addr",
	"netmem.timeoutError.Timeout":   "net.Error method; callers test errors through net.Error",
	"netmem.timeoutError.Temporary": "net.Error method; callers test errors through net.Error",
	"dsp.ReadCapture":               "reads the VABC captures that vabscan -capture writes; the receive chain's recorded fixtures (ROADMAP item 2) load through it",
	"dsp.WelchPSD":                  "how TestWelchConfirmsChannelColoring measures the synthesized noise spectrum; the Wenz noise check (ROADMAP item 6) needs it",
	"dsp.BandPower":                 "integrates WelchPSD over a band for TestWelchConfirmsChannelColoring and the Wenz noise check",
	"vanatta.Array.FailedElements":  "core's TestApplyFaultPlanElements counts the elements a DeadFrac fault plan kills through it",
	"node.DecodeReadings":           "the inverse of the packed payload encoder; FuzzPackedDecode round-trips against it",
}

// TestEveryExportedFuncHasACaller fails when an exported top-level function
// or method of the main module has no caller in a non-test Go file, unless
// uncalledAllowed names it with a reason; it also fails on an allow-list
// entry that is now called or no longer declared. Declarations come from
// every non-test file outside internal/benchmark; callers come from every
// non-test file, cmd/, examples/ and internal/benchmark included.
//
// A declaration counts as called when its name appears as an identifier
// anywhere outside its own body. The match is by name only, so dead code
// whose name a live symbol (or a field) shares goes unnoticed; but a
// function that is called is never flagged.
func TestEveryExportedFuncHasACaller(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found at %s: %v", root, err)
	}
	skip := map[string]bool{
		filepath.Join(root, ".bench_build"): true,
		filepath.Join(root, ".git"):         true,
	}
	benchDir := filepath.Join(root, "internal", "benchmark") + string(filepath.Separator)

	type decl struct {
		key, name, pos string
		own            int // uses of name inside the declaration's own body
	}
	var decls []decl
	uses := map[string]int{}
	fset := token.NewFileSet()
	var scanned int
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skip[path] {
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
		scanned++
		names := map[*ast.Ident]bool{}
		for _, dd := range f.Decls {
			if fd, ok := dd.(*ast.FuncDecl); ok {
				names[fd.Name] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !names[id] {
				uses[id.Name]++
			}
			return true
		})
		if strings.HasPrefix(path, benchDir) {
			return nil
		}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "."
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				key += recvName(fd.Recv.List[0].Type) + "."
			}
			own := 0
			if fd.Body != nil {
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok && id.Name == fd.Name.Name {
						own++
					}
					return true
				})
			}
			rel, _ := filepath.Rel(root, fset.Position(fd.Pos()).Filename)
			decls = append(decls, decl{key + fd.Name.Name, fd.Name.Name,
				rel + ":" + strconv.Itoa(fset.Position(fd.Pos()).Line), own})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if scanned < 100 {
		t.Fatalf("scanned only %d Go files under %s; the walk is not covering the module", scanned, root)
	}

	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		called := uses[d.name] > d.own
		_, allowed := uncalledAllowed[d.key]
		switch {
		case !called && !allowed:
			t.Errorf("%s (%s) has no non-test caller: delete it, move it into a _test.go file, or allow-list it with a reason", d.key, d.pos)
		case called && allowed:
			t.Errorf("allow-list entry %s is stale: %s is called now", d.key, d.pos)
		}
	}
	var keys []string
	for k := range uncalledAllowed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !declared[k] {
			t.Errorf("allow-list entry %s is stale: nothing declares it", k)
		}
		if strings.TrimSpace(uncalledAllowed[k]) == "" {
			t.Errorf("allow-list entry %s has no reason", k)
		}
	}
}

// recvName is the receiver's type name, without pointer or type parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
