package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
)

// testFlag matches a -run, -fuzz or -bench pattern in a shell script, quoted
// or bare.
var testFlag = regexp.MustCompile(`-(?:run|fuzz|bench)[= ](?:'([^']*)'|"([^"]*)"|([^\s;|&]+))`)

// checkScriptProblems reports every alternative of the -run, -fuzz and
// -bench patterns on scripts/check.sh's go test lines that matches no Test,
// Fuzz or Benchmark function a _test.go file in the module declares, so
// deleting or renaming a test cannot turn a step of the script into a silent
// "no tests to run". As go test does, it matches the pattern's first
// slash-separated level against top-level names; each top-level alternative
// must match on its own. The intentional "^$" (run no tests) is exempt.
func checkScriptProblems(root string) []string {
	script, err := os.ReadFile(filepath.Join(root, "scripts", "check.sh"))
	if err != nil {
		return []string{fmt.Sprintf("scripts/check.sh: %v", err)}
	}
	tests, err := declaredTests(root)
	if err != nil {
		return []string{fmt.Sprintf("test scan: %v", err)}
	}
	var problems []string
	seen := map[string]bool{"^$": true}
	for _, line := range strings.Split(string(script), "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "go test ") {
			continue
		}
		for _, m := range testFlag.FindAllStringSubmatch(line, -1) {
			for _, alt := range splitTop(splitTop(m[1]+m[2]+m[3], '/')[0], '|') {
				if seen[alt] {
					continue
				}
				seen[alt] = true
				if re, err := regexp.Compile(alt); err != nil {
					problems = append(problems, fmt.Sprintf("scripts/check.sh: pattern %s: %v", alt, err))
				} else if !slices.ContainsFunc(tests, re.MatchString) {
					problems = append(problems, fmt.Sprintf("scripts/check.sh: pattern %s matches no test the module declares", alt))
				}
			}
		}
	}
	return problems
}

// splitTop splits pattern at each sep outside parentheses, brackets and
// escapes.
func splitTop(pattern string, sep byte) []string {
	var parts []string
	depth, start := 0, 0
	for i := 0; i < len(pattern); i++ {
		switch c := pattern[i]; {
		case c == '\\':
			i++
		case c == '(' || c == '[':
			depth++
		case c == ')' || c == ']':
			depth--
		case c == sep && depth == 0:
			parts = append(parts, pattern[start:i])
			start = i + 1
		}
	}
	return append(parts, pattern[start:])
}

// declaredTests returns the names of every top-level Test, Fuzz and
// Benchmark function in the module's _test.go files, whatever their build
// tags.
func declaredTests(root string) ([]string, error) {
	var names []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || d.Name() == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				names = append(names, fd.Name.Name)
			}
		}
		return nil
	})
	return names, err
}
