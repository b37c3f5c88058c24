// Package archtest tests the repository's shape rather than its
// behaviour: rules a change could break without any other test noticing.
// Each rule's failure message names the DESIGN.md section that explains
// it. The package has no code of its own.
package archtest

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// module is the module path every in-repo import starts with.
const module = "boxes"

// importRule is the allow-list of one package's imports: the module
// packages it may import (by path under internal/) and the standard
// library trees it must not touch.
type importRule struct {
	pkg       string   // path under internal/
	allow     []string // module packages it may import, by path under internal/
	forbidStd []string // standard library trees it may not import (each with its subpackages)
	why       string   // the reason, with the DESIGN.md section that gives it
}

// boxImports is what the paper's structures may see: blocks through the
// pager, labels and errors through order, untrusted bytes through enc,
// label IDs through lidf, counters through obs. No file system, clock,
// network or lock: durability, time and concurrency belong to the store
// above them, so a structure's cost is its block I/Os and nothing else.
var (
	boxImports = []string{"enc", "lidf", "obs", "order", "pager"}
	boxForbid  = []string{"os", "net", "time", "sync"}
)

const boxWhy = "a labeling structure reaches storage only through pager and owns no OS, clock, network or lock (DESIGN.md §3, Layering)"

var importRules = []importRule{
	{pkg: "wbox", allow: boxImports, forbidStd: boxForbid, why: boxWhy},
	{pkg: "bbox", allow: boxImports, forbidStd: boxForbid, why: boxWhy},
	{pkg: "lidf", allow: boxImports, forbidStd: boxForbid, why: boxWhy},
	{pkg: "naive", allow: boxImports, forbidStd: boxForbid, why: boxWhy},
	{pkg: "pager", allow: []string{"faults", "obs"},
		why: "the block layer sits under every structure and sees only fault classes and metrics (DESIGN.md §3, Layering)"},
	{pkg: "order", why: "order is the shared vocabulary every layer imports, so it imports none (DESIGN.md §3, Layering)"},
	{pkg: "enc", why: "enc is the one decoder of untrusted bytes, a leaf every codec imports (DESIGN.md §3, Layering)"},
	{pkg: "query", allow: []string{"order"},
		why: "queries run over labels alone, not over a store (DESIGN.md §3, Layering)"},
	{pkg: "xmlgen", allow: []string{"order"},
		why: "the document model and generators know labels, not stores (DESIGN.md §3, Layering)"},
}

// TestImportRules parses each ruled package's non-test files and checks
// every import against the package's allow-list.
func TestImportRules(t *testing.T) {
	root := filepath.Join("..", "..")
	for _, rule := range importRules {
		dir := filepath.Join(root, "internal", rule.pkg)
		imports, err := packageImports(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(imports) == 0 {
			t.Errorf("internal/%s: no non-test file imports anything; is the rule's path still right?", rule.pkg)
		}
		for file, paths := range imports {
			for _, path := range paths {
				if msg := rule.check(path); msg != "" {
					t.Errorf("%s imports %q: %s; %s", file, path, msg, rule.why)
				}
			}
		}
	}
}

// check returns why rule forbids importing path, or "" when it may.
func (rule importRule) check(path string) string {
	if path == module || strings.HasPrefix(path, module+"/") {
		rel, ok := strings.CutPrefix(path, module+"/internal/")
		if ok {
			for _, a := range rule.allow {
				if rel == a {
					return ""
				}
			}
		}
		if len(rule.allow) == 0 {
			return "internal/" + rule.pkg + " may import nothing from the module"
		}
		return "internal/" + rule.pkg + " may import only " + strings.Join(rule.allow, ", ") + " from the module"
	}
	for _, std := range rule.forbidStd {
		if path == std || strings.HasPrefix(path, std+"/") {
			return "internal/" + rule.pkg + " may not import " + std + " or its subpackages"
		}
	}
	return ""
}

// packageImports returns the import paths of each non-test .go file in
// dir, keyed by the file's path.
func packageImports(dir string) (map[string][]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	out := make(map[string][]string)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return nil, err
			}
			out[path] = append(out[path], p)
		}
	}
	return out, nil
}

// TestImportRuleCheck pins the rule matcher itself on planted imports,
// so a rule that silently stops matching fails here.
func TestImportRuleCheck(t *testing.T) {
	box := importRule{pkg: "wbox", allow: boxImports, forbidStd: boxForbid}
	for _, c := range []struct {
		path string
		ok   bool
	}{
		{"boxes/internal/pager", true},
		{"boxes/internal/enc", true},
		{"encoding/binary", true},
		{"boxes/internal/core", false},
		{"boxes", false},
		{"os", false},
		{"sync/atomic", false},
		{"net/http", false},
		{"time", false},
		{"osext", true},
	} {
		if got := box.check(c.path) == ""; got != c.ok {
			t.Errorf("wbox importing %q: allowed = %v, want %v", c.path, got, c.ok)
		}
	}
	leaf := importRule{pkg: "order"}
	if leaf.check("boxes/internal/enc") == "" {
		t.Error("order may import boxes/internal/enc, want nothing from the module")
	}
	if leaf.check("math/big") != "" {
		t.Error("order may not import math/big, want any standard package")
	}
}
