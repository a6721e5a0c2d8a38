package vab

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// uncalledAllowed lists the exported names and the methods of the main
// module that no non-test file references, each kept on purpose. Keys are
// pkg.Name or pkg.Recv.Name, with pkg the last element of the import path.
var uncalledAllowed = map[string]string{
	"dsp.ReadCapture":              "reads the VABC captures that vabscan -capture writes; the receive chain's recorded fixtures (ROADMAP item 2) load through it",
	"dsp.WelchPSD":                 "how TestWelchConfirmsChannelColoring measures the synthesized noise spectrum; the Wenz noise check (ROADMAP item 6) needs it",
	"dsp.BandPower":                "integrates WelchPSD over a band for TestWelchConfirmsChannelColoring and the Wenz noise check",
	"vanatta.Array.FailedElements": "core's TestApplyFaultPlanElements counts the elements a DeadFrac fault plan kills through it",
	"node.DecodeReadings":          "the inverse of the packed payload encoder; FuzzPackedDecode round-trips against it",
	"dsp.NormXCorrInto":            "reference implementation: TestCorrelatorMatchesOneShot pins Correlator.NormXCorrInto, which acquisition runs, against it bit for bit",
	"dsp.Correlator.XCorrInto":     "the raw surface TestCorrelatorMatchesOneShot compares with the package-level XCorrInto on both the direct and the FFT path",
	"dsp.Goertzel.Energy":          "reference single-tone energy: the Goertzel tests check tone orthogonality with it, and the phy and channel tests measure tone energies with it",
	"core.Fleet.System":            "test seam: linksim's TestFleetTierSeam reads a waveform node's chip rate through it",
	"linksim.Equivalence.String":   "fmt.Stringer: vabsim -calibrate prints the gate's statistics with %v (cmd/vabsim/main.go, runCalibrate)",
	"node.State.String":            "fmt.Stringer: the quickstart example prints the node state after harvesting with %v (examples/quickstart/main.go)",
	"telemetry.Kind.String":        "fmt.Stringer: the /metrics exposition writes each family's # TYPE line with %s (internal/telemetry/http.go)",
}

// unwrittenAllowed lists the exported struct fields of the main module's
// package-level types that no non-test file writes, each kept on purpose.
// Keys are pkg.Type.Field.
var unwrittenAllowed = map[string]string{
	"channel.Config.DisableNoise":     "test seam: the channel tests' base config switches ambient noise off so each test measures one mechanism",
	"core.SystemConfig.DisableFading": "test seam: TestSystemWaveformAgreesWithBudgetTier switches fading off so one waveform realization tracks the budget tier",
	"linksim.Config.Table":            "test seam: fleet tests inject a hand-built table; production runs the embedded calibration",
	"linksim.Placement.RangeM":        "test seam: pinned placements put fleet-test nodes at known ranges; production draws them from the seed",
	"linksim.Placement.OrientRad":     "test seam: pinned placements put fleet-test nodes at known orientations; production draws them from the seed",
	"reader.Config.UseEqualizer":      "the equalizer ablation bench and TestEqualizerImprovesCoastalDecodeRate turn it on; ROADMAP item 1 names both as gates",
}

// oneValueAllowed lists the exported struct fields that production code
// sets to one constant only, each kept on purpose: a seam a named test
// sets to another value, a field internal/benchmark writes, or one whose
// constant would fold to different bits. Keys are pkg.Type.Field.
var oneValueAllowed = map[string]string{
	"baseline.PABDesign.OffLoad":        "ablation seam: TestDepthPenaltyPositive and BenchmarkAblationMatching set other off-state loads",
	"channel.Config.CarrierHz":          "internal/benchmark's ladder builds channel.Config with it, and the benchmark's files stay as they are",
	"linksim.CalibrateConfig.Scenario":  "internal/benchmark's calibrate workload sets it, and the benchmark's files stay as they are",
	"mac.PollPolicy.MaxRetries":         "seam: TestSchedulerDropsDeadNodes, TestFoldPollFailureTransitions and the probation tests run without retries",
	"mac.RateController.Smoothing":      "seam: TestCycleRateSnapshot and TestRateControllerMetrics set 1 so each observation moves the rate at once",
	"ocean.MultipathConfig.MaxOrder":    "seam: TestMultipathBounceCounts and TestMultipathFloorFiltersWeakArrivals trace other image orders",
	"ocean.MultipathConfig.MinRelAmpDB": "seam: TestMultipathBounceCounts and TestMultipathFloorFiltersWeakArrivals set other arrival floors",
	"phy.Params.F0":                     "seam: TestLocateMatchesFullSearch and TestCoarseFactorKeepsTonesInBand acquire at other tone pairs",
	"phy.Params.F1":                     "seam: TestLocateMatchesFullSearch and TestCoarseFactorKeepsTonesInBand acquire at other tone pairs",
	"phy.Params.SampleRate":             "seam: every sample-time formula of phy, reader, node and channel reads it from Params; TestParamsValidation pins its checks",
	"reader.Config.AcquireThreshold":    "seam: TestReacquireBoundedByFloor starts below 0.13, the only way to reach reacquireFloor",
	"reader.Config.UseDiversity":        "seam: TestSystemWaveformAgreesWithBudgetTier switches diversity off to compare one branch with the budget tier",
	"vanatta.Array.LineDelaySec":        "seam: the vanatta tests build ideal arrays with zero line delay",
	"vanatta.Array.LineLossDB":          "seam: TestLineLossReducesGain sets 3 dB; the other vanatta tests build lossless arrays",
}

// unreadAllowed lists the exported struct fields that no non-test file
// reads, each a test-pinned observable that costs nothing to compute.
// Keys are pkg.Type.Field.
var unreadAllowed = map[string]string{
	"core.RoundReport.QueryOK":     "stage flag RunRound sets anyway: TestSystemRoundAtModerateRange reads it, and the chaos tests compare rounds through roundSignature",
	"core.RoundReport.NodeSilent":  "stage flag RunRound sets anyway: TestSystemNodeStaysSilentWithoutEnergy and TestApplyFaultPlanBrownout read it",
	"core.RoundReport.PayloadOK":   "stage flag RunRound sets anyway: TestSystemRoundAtModerateRange reads it",
	"faults.RoundPlan.Round":       "the plan's own index: TestPooledPlanMatchesFreshSources compares it through samePlanBits",
	"linksim.HeroReport.MeanAbsZ":  "an abs and an add per hero check; TestFleetTranscriptGolden's transcript prints it (0 there: the golden fleets run no hero links), so it goes with a change that may regenerate that golden",
	"node.Stats.QueriesMine":       "an increment: TestNodeWakesAndResponds reads it",
	"node.Stats.CommandsApplied":   "an increment: TestCommandPing reads it",
	"node.Stats.BrownOuts":         "an increment: TestNodeBrownsOutWithoutEnergy reads it",
	"ocean.Arrival.SurfaceBounces": "image geometry the tracer computes anyway: TestMultipathBounceCounts reads it",
	"ocean.Arrival.BottomBounces":  "image geometry the tracer computes anyway: TestMultipathBounceCounts reads it",
	"ocean.RayPoint.Theta":         "the ray state the integrator steps anyway: TestBoundaryReflectionsConserveInvariant reads it",
	"phy.EchoEstimate.Offset":      "a view of the fitted path gains the equalizer cancels with: TestEqualizerEstimatesEchoGain reads it",
	"phy.EchoEstimate.Gain":        "a view of the fitted path gains the equalizer cancels with: TestEqualizerEstimatesEchoGain reads it",
	"sim.CellResult.BERLow":        "the Wilson bound computed with BERHigh: TestRunCellMatchesAnalyticBER reads it",
}

// TestEveryExportedFuncHasACaller fails when an exported package-level
// func, type, var or const of the main module, or any method of its
// package-level types (interface methods included), has no reference from
// a non-test file outside its own declaration (for a type, its methods do
// not count either), unless uncalledAllowed names it with a reason; it
// also fails on an allow-list entry that is referenced now, no longer
// declared or has no reason. A method also counts as referenced when its
// type, or a pointer to it, implements an interface that non-test code
// names and that declares the method. References come from every non-test
// file, internal/benchmark's included; uses are resolved by go/types, so a
// dead name that a live one shares is still caught.
func TestEveryExportedFuncHasACaller(t *testing.T) {
	m := loadModule(t)
	checkAllowList(t, "uncalledAllowed", uncalledAllowed, m.names,
		"has no non-test reference: delete it, move it into a _test.go file, or allow-list it with a reason",
		"is referenced now")
}

// TestEverySettingHasAProductionWriter fails when an exported struct field
// of a package-level type of the main module is never written by a
// non-test file, unless unwrittenAllowed names it with a reason, or when
// it takes only one value in production, unless oneValueAllowed names it;
// it also fails on a stale or reasonless entry of either list.
// A write is a composite literal (keyed or positional), an assignment,
// ++/--, taking the field's address, or calling a pointer method on it; a
// field with a json tag is filled by reflection and counts as written.
// A field takes one value when every write stores the same constant and
// nothing leaves it at a different zero value: a composite literal that
// omits it, a var declaration without a value, new or make of its struct.
func TestEverySettingHasAProductionWriter(t *testing.T) {
	m := loadModule(t)
	checkAllowList(t, "unwrittenAllowed", unwrittenAllowed, m.fields,
		"is never written outside tests: make it a constant, delete it, or allow-list it with a reason",
		"is written now")
	checkAllowList(t, "oneValueAllowed", oneValueAllowed, m.settings,
		"takes one value in production: make it a constant, or allow-list it with a reason",
		"takes more than one value now")
}

// TestEveryResultHasAProductionReader fails when an exported struct field
// of a package-level type of the main module is never read by non-test
// code, unless unreadAllowed names it with a reason; it also fails on a
// stale or reasonless entry. A read is any selection of the field except
// as the target of = or :=, as the operand of op=, ++ or -- (an update of
// the field itself), or as a composite-literal key; selecting an embedded
// field's promoted member reads the embedded field. internal/benchmark
// counts as a reader, and a field with a json tag is read by reflection.
func TestEveryResultHasAProductionReader(t *testing.T) {
	m := loadModule(t)
	checkAllowList(t, "unreadAllowed", unreadAllowed, m.results,
		"is never read outside tests: stop computing it, delete it, or allow-list it with a reason",
		"is read now")
}

// TestGuardsCatchTheirSeeds scans the fixture module testdata/guards,
// which seeds one uncalled name, one unwritten field, one single-valued
// setting and one unread result, and checks that each guard reports
// exactly its seed.
func TestGuardsCatchTheirSeeds(t *testing.T) {
	m, err := scanModule(filepath.Join("testdata", "guards"), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		guard string
		decls map[string]*declUse
		seed  string
	}{
		{"caller", m.names, "lib.Unused"},
		{"writer", m.fields, "lib.Config.Mode"},
		{"one value", m.settings, "lib.Config.Gain"},
		{"reader", m.results, "lib.Result.Count"},
	} {
		var got []string
		for k, d := range g.decls {
			if !d.used {
				got = append(got, k)
			}
		}
		sort.Strings(got)
		if len(got) != 1 || got[0] != g.seed {
			t.Errorf("%s guard reports %v, want exactly [%s]", g.guard, got, g.seed)
		}
	}
}

// checkAllowList reports every unused declaration that allow is missing,
// and every entry of allow that is used, undeclared or has no reason.
func checkAllowList(t *testing.T, name string, allow map[string]string, decls map[string]*declUse, unused, stale string) {
	t.Helper()
	keys := make([]string, 0, len(decls))
	for k := range decls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d := decls[k]
		_, allowed := allow[k]
		switch {
		case !d.used && !allowed:
			t.Errorf("%s (%s) %s", k, d.pos, unused)
		case d.used && allowed:
			t.Errorf("%s entry %s is stale: %s (%s)", name, k, stale, d.pos)
		}
	}
	keys = keys[:0]
	for k := range allow {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if decls[k] == nil {
			t.Errorf("%s entry %s is stale: nothing declares it", name, k)
		}
		if strings.TrimSpace(allow[k]) == "" {
			t.Errorf("%s entry %s has no reason", name, k)
		}
	}
}

// declUse is one checked declaration and whether non-test code uses it.
type declUse struct {
	pos  string
	used bool
}

// moduleUses is what both guards read from one type-check of the module.
type moduleUses struct {
	names    map[string]*declUse // pkg.Name and pkg.Recv.Name: referenced
	fields   map[string]*declUse // pkg.Type.Field: written
	settings map[string]*declUse // pkg.Type.Field: takes more than one value
	results  map[string]*declUse // pkg.Type.Field: read
}

var (
	moduleOnce sync.Once
	moduleRes  *moduleUses
	moduleErr  error
)

// loadModule type-checks every non-test package once per test binary.
func loadModule(t *testing.T) *moduleUses {
	t.Helper()
	moduleOnce.Do(func() { moduleRes, moduleErr = scanModule(".", 100) })
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return moduleRes
}

// modLoader type-checks the module's packages from source on demand, in
// import order, into one shared types.Info; the standard library comes
// from the source importer.
type modLoader struct {
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string]string // import path → directory
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
	info  *types.Info
}

func (l *modLoader) Import(p string) (*types.Package, error) {
	if pkg, ok := l.pkgs[p]; ok {
		return pkg, nil
	}
	dir, ok := l.dirs[p]
	if !ok {
		return l.std.Import(p)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		match, err := build.Default.MatchFile(dir, name) // build constraints: a //go:build line or a _windows.go suffix
		if err != nil {
			return nil, err
		}
		if !match {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(p, l.fset, files, l.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", p, err)
	}
	l.pkgs[p] = pkg
	l.files[p] = files
	return pkg, nil
}

// scanModule type-checks every non-test package under root (module vab,
// internal/benchmark's nested module included) and records, for each
// declaration the guards check outside internal/benchmark, whether
// non-test code uses it. It fails when fewer than minFiles files were
// type-checked, so a walk that misses the module cannot pass.
func scanModule(root string, minFiles int) (*moduleUses, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return nil, fmt.Errorf("module root not found at %s: %w", root, err)
	}
	fset := token.NewFileSet()
	l := &modLoader{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		dirs:  map[string]string{},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if n := d.Name(); p != root && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		ip := "vab"
		if rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		l.dirs[ip] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	var paths []string
	for ip := range l.dirs {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	var nfiles int
	for _, ip := range paths {
		if _, err := l.Import(ip); err != nil {
			return nil, err
		}
		nfiles += len(l.files[ip])
	}
	if nfiles < minFiles {
		return nil, fmt.Errorf("type-checked only %d Go files under %s; the walk is not covering the module", nfiles, root)
	}

	info := l.info
	m := &moduleUses{names: map[string]*declUse{}, fields: map[string]*declUse{}, settings: map[string]*declUse{}, results: map[string]*declUse{}}
	where := func(pos token.Pos) string {
		p := fset.Position(pos)
		rel, _ := filepath.Rel(root, p.Filename)
		return rel + ":" + strconv.Itoa(p.Line)
	}

	// Declarations, and the spans whose references to them do not count.
	type span struct{ from, to token.Pos }
	names := map[types.Object]string{}
	own := map[types.Object][]span{}
	fieldKey := map[*types.Var]string{}
	written := map[*types.Var]bool{}
	read := map[*types.Var]bool{}
	// A written field takes one value when every write stores the same
	// constant (consts) and nothing leaves it at a different zero value
	// (unset); any other write makes it varying.
	consts := map[*types.Var][]constant.Value{}
	varying := map[*types.Var]bool{}
	unset := map[*types.Var]bool{}
	for _, ip := range paths {
		if ip == "vab/internal/benchmark" || strings.HasPrefix(ip, "vab/internal/benchmark/") {
			continue
		}
		base := path.Base(ip)
		for _, f := range l.files[ip] {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj := info.Defs[d.Name]
					sp := span{d.Pos(), d.End()}
					own[obj] = append(own[obj], sp)
					if d.Recv == nil {
						if d.Name.IsExported() {
							names[obj] = base + "." + d.Name.Name
						}
						continue
					}
					recv := recvTypeName(info, d.Recv.List[0].Type)
					if recv == nil {
						continue
					}
					own[recv] = append(own[recv], sp)
					names[obj] = base + "." + recv.Name() + "." + d.Name.Name
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							obj := info.Defs[s.Name]
							own[obj] = append(own[obj], span{s.Pos(), s.End()})
							if s.Name.IsExported() {
								names[obj] = base + "." + s.Name.Name
							}
							if it, ok := s.Type.(*ast.InterfaceType); ok {
								for _, fld := range it.Methods.List {
									for _, n := range fld.Names {
										names[info.Defs[n]] = base + "." + s.Name.Name + "." + n.Name
									}
								}
							}
							ast.Inspect(s.Type, func(n ast.Node) bool {
								st, ok := n.(*ast.StructType)
								if !ok {
									return true
								}
								for _, fld := range st.Fields.List {
									tagged := false
									if fld.Tag != nil {
										tag, _ := strconv.Unquote(fld.Tag.Value)
										_, tagged = reflect.StructTag(tag).Lookup("json")
									}
									idents := fld.Names
									if len(idents) == 0 {
										idents = []*ast.Ident{embeddedIdent(fld.Type)}
									}
									for _, id := range idents {
										v, ok := info.Defs[id].(*types.Var)
										if !ok || !v.Exported() {
											continue
										}
										fieldKey[v] = base + "." + s.Name.Name + "." + id.Name
										if tagged {
											written[v], varying[v], read[v] = true, true, true
										}
									}
								}
								return true
							})
						case *ast.ValueSpec:
							for _, n := range s.Names {
								obj := info.Defs[n]
								own[obj] = append(own[obj], span{s.Pos(), s.End()})
								if n.IsExported() {
									names[obj] = base + "." + n.Name
								}
							}
						}
					}
				}
			}
		}
	}

	// References and writes, from every non-test file.
	used := map[types.Object]bool{}
	outside := func(obj types.Object, pos token.Pos) bool {
		for _, sp := range own[obj] {
			if sp.from <= pos && pos < sp.to {
				return false
			}
		}
		return true
	}
	for id, obj := range info.Uses {
		obj = origin(obj)
		if _, ok := names[obj]; ok && !used[obj] && outside(obj, id.Pos()) {
			used[obj] = true
		}
	}
	setField := func(v *types.Var, val ast.Expr) {
		v = origin(v).(*types.Var)
		written[v] = true
		if val != nil {
			if c := info.Types[val].Value; c != nil {
				consts[v] = append(consts[v], c)
				return
			}
		}
		varying[v] = true
	}
	// markChain records a write through e; val is the value stored when
	// e is the field itself, nil when the write changes it otherwise.
	markChain := func(e ast.Expr, val ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
				continue
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
					setField(sel.Obj().(*types.Var), val)
				}
				e = x.X
			default:
				return
			}
			val = nil
		}
	}
	// zeroOf records a zero value of type t, a struct or an array of
	// structs: its fields are unset. A struct-valued field left unset is
	// not followed, since code that reads one (core.SystemConfig.Reader)
	// replaces the zero value with its defaults.
	var zeroOf func(t types.Type)
	zeroOf = func(t types.Type) {
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				unset[origin(u.Field(i)).(*types.Var)] = true
			}
		case *types.Array:
			zeroOf(u.Elem())
		}
	}
	builtin := func(call *ast.CallExpr, name string) bool {
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return false
		}
		b, ok := info.Uses[id].(*types.Builtin)
		return ok && b.Name() == name
	}
	// targets are the selectors an assignment or an update writes; they
	// are the only selections that do not read the field.
	targets := map[*ast.SelectorExpr]bool{}
	target := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			targets[sel] = true
		}
	}
	for _, ip := range paths {
		for _, f := range l.files[ip] {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CompositeLit:
					st := structOf(info.Types[x].Type)
					if st == nil {
						return true
					}
					set := map[*types.Var]bool{}
					for i, e := range x.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								if v, ok := info.Uses[id].(*types.Var); ok {
									setField(v, kv.Value)
									set[v] = true
								}
							}
						} else if i < st.NumFields() {
							setField(st.Field(i), e)
							set[st.Field(i)] = true
						}
					}
					for i := 0; i < st.NumFields(); i++ {
						if f := st.Field(i); !set[f] {
							unset[origin(f).(*types.Var)] = true
						}
					}
				case *ast.ValueSpec:
					if len(x.Values) == 0 {
						for _, n := range x.Names {
							zeroOf(info.Defs[n].Type())
						}
					}
				case *ast.CallExpr:
					if builtin(x, "new") {
						zeroOf(info.Types[x.Args[0]].Type)
					}
					if builtin(x, "make") && len(x.Args) > 1 {
						if sl, ok := info.Types[x.Args[0]].Type.Underlying().(*types.Slice); ok {
							if n := info.Types[x.Args[1]].Value; n == nil || constant.Sign(n) != 0 {
								zeroOf(sl.Elem())
							}
						}
					}
				case *ast.AssignStmt:
					whole := (x.Tok == token.ASSIGN || x.Tok == token.DEFINE) && len(x.Lhs) == len(x.Rhs)
					for i, e := range x.Lhs {
						target(e)
						if whole {
							markChain(e, x.Rhs[i])
						} else {
							markChain(e, nil)
						}
					}
				case *ast.IncDecStmt:
					target(x.X)
					markChain(x.X, nil)
				case *ast.RangeStmt:
					if x.Tok == token.ASSIGN {
						markChain(x.Key, nil)
						markChain(x.Value, nil)
					}
				case *ast.UnaryExpr:
					if x.Op == token.AND {
						markChain(x.X, nil)
					}
				case *ast.SelectorExpr:
					sel := info.Selections[x]
					if sel == nil {
						return true
					}
					// x.f.M() with M on *T takes &x.f.
					if sel.Kind() == types.MethodVal {
						if _, ptrRecv := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); ptrRecv {
							if _, isPtr := sel.Recv().(*types.Pointer); !isPtr {
								markChain(x.X, nil)
							}
						}
					}
					// The embedded fields a promoted selection passes
					// through are read; so is the field itself unless
					// the selection is a write target.
					t := sel.Recv()
					idx := sel.Index()
					for i, j := range idx {
						if i == len(idx)-1 && (sel.Kind() != types.FieldVal || targets[x]) {
							break
						}
						if p, ok := t.Underlying().(*types.Pointer); ok {
							t = p.Elem()
						}
						f := t.Underlying().(*types.Struct).Field(j)
						read[origin(f).(*types.Var)] = true
						t = f.Type()
					}
				}
				return true
			})
		}
	}

	// A method that an interface named by non-test code declares is
	// reached through that interface. fmt reaches String through
	// fmt.Stringer without the caller naming it, so a String method that
	// production formatting reaches is allow-listed with its site.
	ifaces := map[*types.Interface]bool{}
	for _, obj := range info.Uses {
		if tn, ok := obj.(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces[it] = true
			}
		}
	}
	for _, tv := range info.Types {
		if it, ok := tv.Type.(*types.Interface); ok && tv.IsType() {
			ifaces[it] = true
		}
	}
	for obj := range names {
		fn, ok := obj.(*types.Func)
		if !ok || used[obj] {
			continue
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		rt := recv.Type()
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
		}
		named, ok := rt.(*types.Named)
		if !ok || named.TypeParams().Len() > 0 {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue
		}
		for it := range ifaces {
			if !declares(it, fn.Name()) {
				continue
			}
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				used[obj] = true
				break
			}
		}
	}

	for obj, key := range names {
		m.names[key] = &declUse{pos: where(obj.Pos()), used: used[obj]}
	}
	for v, key := range fieldKey {
		pos := where(v.Pos())
		m.fields[key] = &declUse{pos: pos, used: written[v]}
		m.results[key] = &declUse{pos: pos, used: read[v]}
		m.settings[key] = &declUse{pos: pos, used: !written[v] || varying[v] || !oneValue(consts[v], unset[v])}
	}
	return m, nil
}

// oneValue reports whether the constants a field is written with are all
// equal, and equal to its zero value when something leaves it unset.
func oneValue(cs []constant.Value, unset bool) bool {
	for _, c := range cs[1:] {
		if !constant.Compare(c, token.EQL, cs[0]) {
			return false
		}
	}
	if !unset {
		return true
	}
	switch c := cs[0]; c.Kind() {
	case constant.Bool:
		return !constant.BoolVal(c)
	case constant.String:
		return constant.StringVal(c) == ""
	}
	return constant.Sign(cs[0]) == 0
}

// declares reports whether it has a method called name.
func declares(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// origin maps an instantiated generic method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// structOf is the struct type a composite literal of type t builds.
func structOf(t types.Type) *types.Struct {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

// recvTypeName is the type a method's receiver expression names.
func recvTypeName(info *types.Info, e ast.Expr) *types.TypeName {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			tn, _ := info.Uses[x].(*types.TypeName)
			return tn
		default:
			return nil
		}
	}
}

// embeddedIdent is the name an embedded field's type expression gives it.
func embeddedIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}
