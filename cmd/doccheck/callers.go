package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// callerAllowlist names the functions, types, vars and constants under
// internal/ that may stand without a non-test use, keyed "pkg.Name" or "pkg.Type.Method",
// each with why. A "bench pin" must still be used from bench/; every entry
// must still lack any other use.
var callerAllowlist = map[string]string{
	// ROADMAP item 12: bench/ calls these and nothing else does; they go
	// when bench/ moves to a narrow seam.
	"batfish.NewWalker":            benchPin,
	"bgp.Decode":                   benchPin,
	"bgp.MarshalUpdate":            benchPin,
	"bgp.InternStats":              benchPin,
	"core.Emulation.SettleTraffic": benchPin,
	"netpkt.EncapVXLAN":            benchPin,
	"rib.Stats":                    benchPin,
	"serve.Server.Pool":            benchPin,

	"netpkt.IPv4Packet.Marshal":  "test oracle: FuzzNetpkt's reference encoder for the in-place IPv4 header writer",
	"netpkt.VXLANHeader.Marshal": "test oracle: FuzzNetpkt's reference encoder for the in-place VXLAN header writer",
	"phynet.Fabric.Validate":     "test oracle: the overlay's wiring invariants, which phynet and core fork tests check",
	"rib.FIB.InstallHops":        "test oracle: the copying install TestInstallGroupMatchesInstallHops holds InstallGroup's memoised path to",
	"phynet.Fabric.WireCounts":   "test oracle: the frame counters the sharded-convergence determinism test compares across worker counts",
	"traffic.Matrix.Walks":       "test oracle: the settle memo's walked/reused counts, which traffic, core and scenario memo tests check",

	"config.Render":                    "paper reproduction driven by tests: the §2 ACL dialect drift",
	"config.Parse":                     "paper reproduction driven by tests and FuzzConfigParse: the §2 ACL dialect drift",
	"boundary.Plan.CheckProposition54": "graph predicate driven by tests: Proposition 5.4; no link-state IGP stack exists to run it against",

	// Wire codes: each names a value a peer or a packet can carry, which
	// decoders and String render whether or not a model sends it.
	"bgp.OriginIncomplete":    "wire code: ORIGIN value 2 (RFC 4271 §5.1.1); Decode reads any value, no model originates this one",
	"bgp.NotifUpdateError":    "wire code: NOTIFICATION error code 3 (RFC 4271 §4.5); peers send only Cease, header and OPEN errors",
	"bgp.NotifHoldTimer":      "wire code: NOTIFICATION error code 4 (RFC 4271 §4.5); the emulator runs no hold timer",
	"bgp.NotifFSMError":       "wire code: NOTIFICATION error code 5 (RFC 4271 §4.5); peers send only Cease, header and OPEN errors",
	"netpkt.ICMPUnreachable":  "wire code: ICMP type 3 (RFC 792); devices answer echo requests only",
	"netpkt.ICMPTimeExceeded": "wire code: ICMP type 11 (RFC 792); devices answer echo requests only",
}

// benchPin is the allowlist reason of a function only bench/ calls.
const benchPin = "bench pin"

// stdInterfaces are the standard-library interfaces whose implementations
// are called by the library, not by the module: a method that implements
// one needs no caller of its own.
var stdInterfaces = []struct{ pkg, name string }{
	{"", "error"},
	{"fmt", "Stringer"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
	{"sort", "Interface"},
	{"container/heap", "Interface"},
	{"net/http", "ResponseWriter"},
}

// listedPackage is the part of `go list -json` output the caller scan reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	ImportMap  map[string]string
	Module     *struct{ Path string }
}

// buildTags are the build configurations whose non-test code is scanned:
// the default build, and the crystaldebug oracles scripts/check.sh runs.
var buildTags = []string{"", "crystaldebug"}

// declUse is what the caller scan learns about one declaration.
type declUse struct {
	pos       string // file:line of the declaration
	reached   bool   // referred to outside bench/ and its own declaration
	benchUsed bool   // referred to from bench/
}

// callerProblems reports each func, method, type, var and constant declared
// at package level under internal/ that no non-test code outside its own
// declaration refers to, in any of buildTags. References from bench/ do not count, and neither do a method's receiver
// naming its type or a method that implements a standard-library interface
// (stdInterfaces) or one of the module's own interfaces whose method some
// code calls. allow exempts "pkg.Name" and "pkg.Type.Method" keys. An entry
// that names no declaration, names one that has a use, or is a benchPin that
// bench/ no longer uses is reported too, so the list cannot rot.
func callerProblems(root string, allow map[string]string) []string {
	decls := map[string]*declUse{}
	for _, tags := range buildTags {
		if err := scanCallers(root, tags, decls); err != nil {
			return []string{err.Error()}
		}
	}
	var problems []string
	for key, f := range decls {
		reason, allowed := allow[key]
		switch {
		case !f.reached && !allowed:
			problems = append(problems, fmt.Sprintf("%s: %s has no non-test use outside bench/ (use it, delete it, or allowlist it with a reason)", f.pos, key))
		case f.reached && allowed:
			problems = append(problems, fmt.Sprintf("caller allowlist: %s has a use now; drop its entry", key))
		case allowed && reason == benchPin && !f.benchUsed:
			problems = append(problems, fmt.Sprintf("caller allowlist: bench/ no longer calls %s; delete it", key))
		}
	}
	for key := range allow {
		if decls[key] == nil {
			problems = append(problems, fmt.Sprintf("caller allowlist: %s names no declaration under internal/", key))
		}
	}
	return problems
}

// scanCallers type-checks every non-test package of the module at root,
// built with tags, in `go list -deps` order, and merges what it learns about
// the package-level declarations under internal/ into decls.
func scanCallers(root, tags string, decls map[string]*declUse) error {
	root, _ = filepath.Abs(root)
	cmd := exec.Command("go", "list", "-deps", "-json", "-tags", tags, "./...")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go list: %v: %s", err, stderr.String())
	}

	fset := token.NewFileSet()
	checked := map[string]*types.Package{"unsafe": types.Unsafe}
	type span struct{ pos, end token.Pos }
	spans := map[types.Object]span{} // declarations under internal/
	used := map[types.Object]bool{}  // referred to outside bench/
	benchUsed := map[types.Object]bool{}
	receivers := map[*ast.Ident]bool{} // a method's receiver naming its type
	var ifaces []*types.Interface      // the module's own interface types
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return fmt.Errorf("go list output: %v", err)
		}
		if p.ImportPath == "unsafe" {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, f)
		}
		conf := types.Config{
			Importer: importerFunc(func(path string) (*types.Package, error) {
				if mapped, ok := p.ImportMap[path]; ok {
					path = mapped
				}
				if pkg := checked[path]; pkg != nil {
					return pkg, nil
				}
				return nil, fmt.Errorf("%s not checked yet", path)
			}),
			// The standard library is read for its declarations only.
			IgnoreFuncBodies: p.Standard,
			Error:            func(error) {}, // go vet reports type errors; keep what checks
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
		checked[p.ImportPath], _ = conf.Check(p.ImportPath, fset, files, info)
		if p.Standard {
			continue
		}

		rel := strings.TrimPrefix(strings.TrimPrefix(p.ImportPath, p.Module.Path), "/")
		bench := rel == "bench" || strings.HasPrefix(rel, "bench/")
		if rel == "internal" || strings.HasPrefix(rel, "internal/") {
			for _, f := range files {
				for _, d := range f.Decls {
					switch d := d.(type) {
					case *ast.FuncDecl:
						if d.Recv != nil {
							ast.Inspect(d.Recv, func(n ast.Node) bool {
								if id, ok := n.(*ast.Ident); ok {
									receivers[id] = true
								}
								return true
							})
						}
						if d.Name.Name != "init" && d.Name.Name != "_" {
							spans[info.Defs[d.Name]] = span{d.Pos(), d.End()}
						}
					case *ast.GenDecl:
						for _, sp := range d.Specs {
							switch sp := sp.(type) {
							case *ast.TypeSpec:
								spans[info.Defs[sp.Name]] = span{sp.Pos(), sp.End()}
							case *ast.ValueSpec:
								for _, name := range sp.Names {
									if name.Name != "_" {
										spans[info.Defs[name]] = span{sp.Pos(), sp.End()}
									}
								}
							}
						}
					}
				}
			}
		}
		for id, obj := range info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.TypeName, *types.Var, *types.Const:
			default:
				continue
			}
			switch s, ok := spans[obj]; {
			case ok && id.Pos() >= s.pos && id.Pos() < s.end, receivers[id]:
				// Recursion is not a caller, nor a receiver a use.
			case bench:
				benchUsed[obj] = true
			default:
				used[obj] = true
			}
		}
		if !bench {
			for _, obj := range info.Defs {
				if tn, ok := obj.(*types.TypeName); ok {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
						ifaces = append(ifaces, it)
					}
				}
			}
		}
	}

	var std []*types.Interface
	for _, si := range stdInterfaces {
		scope := types.Universe
		if si.pkg != "" {
			if pkg := checked[si.pkg]; pkg != nil {
				scope = pkg.Scope()
			} else {
				continue // nothing in the module imports it
			}
		}
		std = append(std, scope.Lookup(si.name).Type().Underlying().(*types.Interface))
	}

	for obj, s := range spans {
		key := declKey(obj)
		f := decls[key]
		if f == nil {
			pos := fset.Position(s.pos)
			file, _ := filepath.Rel(root, pos.Filename)
			f = &declUse{pos: fmt.Sprintf("%s:%d", file, pos.Line)}
			decls[key] = f
		}
		fn, isFunc := obj.(*types.Func)
		f.reached = f.reached || used[obj] || isFunc && (implements(fn, std, nil) || implements(fn, ifaces, used))
		f.benchUsed = f.benchUsed || benchUsed[obj]
	}
	return nil
}

// implements reports whether fn is a method that makes its receiver type
// satisfy one of set, as that interface's method of the same name. With
// calls non-nil, the interface method must also be referred to in calls.
func implements(fn *types.Func, set []*types.Interface, calls map[types.Object]bool) bool {
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	for _, it := range set {
		if !types.Implements(t, it) && !types.Implements(types.NewPointer(t), it) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			if m := it.Method(i); m.Name() == fn.Name() && (calls == nil || calls[m]) {
				return true
			}
		}
	}
	return false
}

// declKey names obj the way callerAllowlist does: "pkg.Name" or
// "pkg.Type.Method", pkg being the last element of the import path.
func declKey(obj types.Object) string {
	pkg := obj.Pkg().Path()
	pkg = pkg[strings.LastIndex(pkg, "/")+1:]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Signature().Recv() == nil {
		return pkg + "." + obj.Name()
	}
	recv := fn.Signature().Recv()
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return pkg + "." + named.Obj().Name() + "." + fn.Name()
	}
	return pkg + "." + fn.Name()
}

// importerFunc adapts a lookup function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
