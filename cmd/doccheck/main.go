// Command doccheck is the repository's documentation gate: it walks every
// package under internal/ (plus the facade and cmd/) and fails if any
// package lacks a package-level doc comment, or if an internal package's
// doc comment never links a DESIGN.md section. Section references must
// resolve: "DESIGN.md §10" fails if DESIGN.md has no "## 10." heading, and
// the quoted form (DESIGN.md §"Rehearsal service") must match a heading
// title, so renumbering DESIGN.md breaks the gate instead of silently
// stranding the pointers. Any docs/<FILE>.md a package doc mentions must
// exist on disk.
//
// It also cross-checks the prose docs against the code's registries:
// docs/API.md must mention every route the daemon serves
// (internal/serve.Routes), and docs/OBSERVABILITY.md must list every
// metric name registered anywhere under internal/ (every string literal
// passed to a Counter/Gauge/Histogram constructor), so a new metric cannot
// ship undocumented. And every scripts/<name>.sh or cmd/<name> that
// README.md, DESIGN.md or a docs/*.md file mentions must exist on disk, so
// deleting a tool fails the gate until the recipes that advertise it are
// gone too (EXPERIMENTS.md, CHANGES.md and bench/README.md are history and
// are not scanned). The same files may only name <pkg>.<Ident> — and
// <pkg>.<Type>.<member> — for a package under internal/ when that package
// still declares it, so a deleted function, type, field or method cannot
// survive in prose.
//
// Code is held to the same standard (callers.go): every func, method, type
// and var declared at package level in a non-test file under internal/
// needs a use in non-test code outside bench/, or an allowlist entry saying
// why not, so surface no path reaches cannot accumulate. And every Test/Fuzz/Benchmark name in
// scripts/check.sh's -run, -fuzz and -bench patterns must match a declared
// test (testnames.go), so a deleted test cannot leave a step that silently
// runs nothing. scripts/check.sh runs doccheck, so drift fails verification
// the same way a broken test does.
//
// Usage:
//
//	doccheck [root]
//
// root defaults to the current directory and must be the repository root
// (the directory holding go.mod).
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"crystalnet/internal/serve"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %s is not a module root: %v\n", root, err)
		os.Exit(2)
	}

	dirs, err := packageDirs(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		os.Exit(2)
	}

	sections, err := designSections(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		os.Exit(2)
	}

	var problems []string
	for _, dir := range dirs {
		doc, err := packageDoc(dir)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", dir, err))
			continue
		}
		rel, _ := filepath.Rel(root, dir)
		if doc == "" {
			problems = append(problems, fmt.Sprintf("%s: no package doc comment", rel))
			continue
		}
		// Internal packages carry the architecture: their doc comments must
		// route the reader to a real DESIGN.md section, and any docs/ file
		// they mention must exist.
		if strings.HasPrefix(rel, "internal"+string(filepath.Separator)) {
			problems = append(problems, sectionProblems(rel, doc, sections)...)
			problems = append(problems, docsFileProblems(root, rel, doc)...)
		}
	}

	problems = append(problems, apiDocProblems(root)...)
	problems = append(problems, metricDocProblems(root)...)
	problems = append(problems, toolRefProblems(root)...)
	problems = append(problems, identRefProblems(root)...)
	problems = append(problems, callerProblems(root, callerAllowlist)...)
	problems = append(problems, checkScriptProblems(root)...)

	if len(problems) > 0 {
		sort.Strings(problems)
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "doccheck:", p)
		}
		os.Exit(1)
	}
	metrics, _ := registeredMetrics(filepath.Join(root, "internal"))
	fmt.Printf("doccheck: %d packages documented, %d API routes covered, %d metrics listed\n",
		len(dirs), len(serve.Routes), len(metrics))
}

// sectionRef matches the two DESIGN.md section-reference forms package
// docs use: "DESIGN.md §10" and `DESIGN.md §"Rehearsal service"`.
var sectionRef = regexp.MustCompile(`DESIGN\.md §(?:(\d+)|"([^"]+)")`)

// designSections parses DESIGN.md's "## N. Title" headings into a
// number → title map.
func designSections(root string) (map[string]string, error) {
	raw, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		return nil, err
	}
	heading := regexp.MustCompile(`(?m)^## (\d+)\.\s+(.+)$`)
	sections := map[string]string{}
	for _, m := range heading.FindAllStringSubmatch(string(raw), -1) {
		sections[m[1]] = strings.TrimSpace(m[2])
	}
	return sections, nil
}

// sectionProblems verifies a package doc references at least one DESIGN.md
// section and that every reference resolves against the current headings.
func sectionProblems(rel, doc string, sections map[string]string) []string {
	var problems []string
	refs := sectionRef.FindAllStringSubmatch(doc, -1)
	if len(refs) == 0 {
		return []string{fmt.Sprintf("%s: package doc does not link a DESIGN.md section (want e.g. `DESIGN.md §10`)", rel)}
	}
	for _, ref := range refs {
		if num := ref[1]; num != "" {
			if _, ok := sections[num]; !ok {
				problems = append(problems,
					fmt.Sprintf("%s: package doc links DESIGN.md §%s, which has no `## %s.` heading", rel, num, num))
			}
			continue
		}
		title, found := ref[2], false
		for _, t := range sections {
			if strings.Contains(t, title) {
				found = true
				break
			}
		}
		if !found {
			problems = append(problems,
				fmt.Sprintf("%s: package doc links DESIGN.md §%q, which matches no heading title", rel, title))
		}
	}
	return problems
}

// docsFileRef matches docs/<FILE>.md mentions in package docs.
var docsFileRef = regexp.MustCompile(`docs/([A-Za-z0-9_.-]+\.md)`)

// docsFileProblems verifies every docs/ file a package doc mentions exists.
func docsFileProblems(root, rel, doc string) []string {
	var problems []string
	seen := map[string]bool{}
	for _, m := range docsFileRef.FindAllStringSubmatch(doc, -1) {
		if seen[m[1]] {
			continue
		}
		seen[m[1]] = true
		if _, err := os.Stat(filepath.Join(root, "docs", m[1])); err != nil {
			problems = append(problems,
				fmt.Sprintf("%s: package doc references docs/%s, which does not exist", rel, m[1]))
		}
	}
	return problems
}

// toolRef matches the repository tools prose docs advertise: a script under
// scripts/ or a command directory under cmd/.
var toolRef = regexp.MustCompile(`\b(scripts/[A-Za-z0-9_.-]+\.sh|cmd/[A-Za-z0-9_-]+)`)

// toolRefProblems verifies that every scripts/<name>.sh and cmd/<name> the
// living docs mention (README.md, DESIGN.md, docs/*.md) exists on disk.
func toolRefProblems(root string) []string {
	return livingDocRefProblems(root, toolRef, func(m []string) bool {
		_, err := os.Stat(filepath.Join(root, filepath.FromSlash(m[1])))
		return err == nil
	})
}

// declared returns every name the non-test files of one package directory
// declare: top-level identifiers, methods, struct fields, interface methods.
func declared(dir string) (map[string]bool, error) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	names := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					names[n.Name.Name] = true
					return false // parameters and locals are not declarations prose can name
				case *ast.TypeSpec:
					names[n.Name.Name] = true
				case *ast.ValueSpec:
					for _, id := range n.Names {
						names[id.Name] = true
					}
				case *ast.Field:
					for _, id := range n.Names {
						names[id.Name] = true
					}
				}
				return true
			})
		}
	}
	return names, err
}

// identRefProblems verifies that every <pkg>.<Ident> and <pkg>.<Type>.<member>
// the living docs mention, for <pkg> a package under internal/ and <Ident>
// exported, names things the package still declares, so a deleted function,
// type, field or method cannot survive in prose. A member is looked up in the
// package, not in its type — enough to catch a deletion. Lower-case second
// components are left alone: metric names (`sim.events`) have that shape.
func identRefProblems(root string) []string {
	entries, err := os.ReadDir(filepath.Join(root, "internal"))
	if err != nil {
		return []string{fmt.Sprintf("internal: %v", err)}
	}
	decls := map[string]map[string]bool{}
	var pkgs []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if decls[e.Name()], err = declared(filepath.Join(root, "internal", e.Name())); err != nil {
			return []string{fmt.Sprintf("internal/%s: %v", e.Name(), err)}
		}
		pkgs = append(pkgs, regexp.QuoteMeta(e.Name()))
	}
	// Not preceded by a path or selector character, so `internal/rib/rib.go`
	// and `em.config.X` are not references to a package.
	ref := regexp.MustCompile(`(?:^|[^\w./-])((` + strings.Join(pkgs, "|") + `)\.([A-Z]\w*)(?:\.(\w+))?)`)
	return livingDocRefProblems(root, ref, func(m []string) bool {
		return decls[m[2]][m[3]] && (m[4] == "" || decls[m[2]][m[4]])
	})
}

// livingDocRefProblems reports every distinct match of ref in README.md,
// DESIGN.md and docs/*.md for which exists is false. exists receives the
// match's submatches; the first capture group is the reference reported.
func livingDocRefProblems(root string, ref *regexp.Regexp, exists func(m []string) bool) []string {
	files, _ := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	files = append(files, filepath.Join(root, "README.md"), filepath.Join(root, "DESIGN.md"))
	var problems []string
	for _, path := range files {
		rel, _ := filepath.Rel(root, path)
		raw, err := os.ReadFile(path)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", rel, err))
			continue
		}
		seen := map[string]bool{}
		for _, m := range ref.FindAllStringSubmatch(string(raw), -1) {
			if seen[m[1]] {
				continue
			}
			seen[m[1]] = true
			if !exists(m) {
				problems = append(problems, fmt.Sprintf("%s: mentions %s, which does not exist", rel, m[1]))
			}
		}
	}
	return problems
}

// apiDocProblems verifies that docs/API.md exists and mentions every
// route crystald serves (internal/serve.Routes is the source of truth).
func apiDocProblems(root string) []string {
	path := filepath.Join(root, "docs", "API.md")
	raw, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("docs/API.md: %v", err)}
	}
	var problems []string
	for _, route := range serve.Routes {
		if !strings.Contains(string(raw), route) {
			problems = append(problems,
				fmt.Sprintf("docs/API.md: route %s is served but undocumented", route))
		}
	}
	return problems
}

// metricDocProblems scans every non-test file under internal/ for metric
// registrations — string literals passed as the first argument to a
// Counter/Gauge/Histogram constructor (or the lowercase vendoring helpers
// some packages wrap them in) — and requires docs/OBSERVABILITY.md to
// mention each name.
func metricDocProblems(root string) []string {
	names, err := registeredMetrics(filepath.Join(root, "internal"))
	if err != nil {
		return []string{fmt.Sprintf("metric scan: %v", err)}
	}
	raw, err := os.ReadFile(filepath.Join(root, "docs", "OBSERVABILITY.md"))
	if err != nil {
		return []string{fmt.Sprintf("docs/OBSERVABILITY.md: %v", err)}
	}
	var problems []string
	for _, name := range names {
		if !strings.Contains(string(raw), "`"+name+"`") {
			problems = append(problems,
				fmt.Sprintf("docs/OBSERVABILITY.md: metric %s is registered in code but not listed", name))
		}
	}
	return problems
}

// registeredMetrics returns the sorted, deduplicated metric names
// registered under dir. internal/obs itself is skipped: it defines the
// constructors, and its docs describe the registry, not specific metrics.
func registeredMetrics(dir string) ([]string, error) {
	seen := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "obs" || d.Name() == "testdata" {
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
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			var fn string
			switch e := call.Fun.(type) {
			case *ast.SelectorExpr:
				fn = e.Sel.Name
			case *ast.Ident:
				fn = e.Name
			default:
				return true
			}
			switch fn {
			case "Counter", "Gauge", "Histogram", "HistogramWith", "counter", "gauge", "histogram":
			default:
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				seen[strings.Trim(lit.Value, `"`)] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// packageDirs lists every directory under root that contains non-test Go
// files, skipping vendored and hidden trees.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "vendor" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	return dirs, err
}

// packageDoc parses a directory's Go files (comments only) and returns the
// package doc comment, preferring the file named after common doc-comment
// conventions — in practice exactly one file per package carries it.
func packageDoc(dir string) (string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		return "", err
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				return f.Doc.Text(), nil
			}
		}
	}
	return "", nil
}
