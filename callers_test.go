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
	"slices"
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
	"node.Stats.QueriesMine":       "an increment: TestNodeWakesAndResponds reads it",
	"node.Stats.CommandsApplied":   "an increment: TestCommandPing reads it",
	"node.Stats.BrownOuts":         "an increment: TestNodeBrownsOutWithoutEnergy reads it",
	"ocean.Arrival.SurfaceBounces": "image geometry the tracer computes anyway: TestMultipathBounceCounts reads it",
	"ocean.Arrival.BottomBounces":  "image geometry the tracer computes anyway: TestMultipathBounceCounts reads it",
	"ocean.RayPoint.Theta":         "the ray state the integrator steps anyway: TestBoundaryReflectionsConserveInvariant reads it",
	"sim.CellResult.BERLow":        "the Wilson bound computed with BERHigh: TestRunCellMatchesAnalyticBER reads it",
	"gateway.Client.ackLiveNext":   "the MsgResumeAck bound decoded with ackReplayFrom, which Next reads: TestResumeRecoversGap reads it",
	"gateway.Client.ackSeen":       "set with the ack's bounds: TestResumeRecoversGap, TestResumeAgedOutGap and TestResumeAheadOfRestartedServer read it to tell an arrived ack from a zero one",
}

// unreadResultAllowed lists the non-error function results that no
// non-test call reads, each kept on purpose. Keys are "pkg.Func result i"
// or "pkg.Recv.Method result i", with i the 0-based result position.
var unreadResultAllowed = map[string]string{
	"phy.Demodulator.Acquire result 0":            "internal/benchmark's phy.acquire_us rung calls it and keeps only the error, and the benchmark's files stay as they are",
	"reader.Reader.QueryWaveform result 1":        "internal/benchmark's reader.query_us rung calls it for the waveform and the error, and the benchmark's files stay as they are",
	"gateway.buffersWriter.WriteBuffers result 0": "internal/benchmark's sinkConn implements this shape to take the gateway's vectored write, and the benchmark's files stay as they are",
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

// TestEveryResultHasAProductionReader fails when a struct field, exported
// or not, of a package-level type of the main module is never read by
// non-test code, unless unreadAllowed names it with a reason; it also
// fails on a stale or reasonless entry. A read is any selection of the
// field except as the target of = or :=, as the operand of op=, ++ or --
// (an update of the field itself), or as a composite-literal key;
// selecting an embedded field's promoted member reads the embedded field.
// A struct value compared with == or !=, used as a map key or converted
// to an interface reads every field it holds. internal/benchmark counts
// as a reader, and a field with a json tag is read by reflection.
func TestEveryResultHasAProductionReader(t *testing.T) {
	m := loadModule(t)
	checkAllowList(t, "unreadAllowed", unreadAllowed, m.results,
		"is never read outside tests: stop computing it, delete it, or allow-list it with a reason",
		"is read now")
}

// TestEveryFunctionResultHasAReader fails when a non-error result of a
// function or method declared outside internal/benchmark (exported or
// not) is read by no non-test call, unless unreadResultAllowed names it
// with a reason; it also fails on a stale or reasonless entry. A call does
// not read a result when it is an expression statement, a go or defer
// statement, or when that position is assigned to _; any other use of a
// call, and any use of the function as a value, reads every result. A
// method that implements a used interface method of the module is checked
// through that interface method, whose entry holds what its calls leave
// unread; a method that satisfies an interface of the standard library
// (io.Writer's Write) has its signature fixed there and is skipped, as is
// a function no non-test code uses at all (that is
// TestEveryExportedFuncHasACaller's to catch). internal/benchmark counts
// as a reader.
func TestEveryFunctionResultHasAReader(t *testing.T) {
	m := loadModule(t)
	checkAllowList(t, "unreadResultAllowed", unreadResultAllowed, m.returns,
		"is read by no non-test call: stop returning it, or allow-list it with a reason",
		"is read now")
}

// TestGuardsCatchTheirSeeds scans the fixture module testdata/guards,
// which seeds one uncalled name, one unwritten field, one single-valued
// setting, one unread field and one unread function result, and checks
// that each guard reports exactly its seeds.
func TestGuardsCatchTheirSeeds(t *testing.T) {
	m, err := scanModule(filepath.Join("testdata", "guards"), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		guard string
		decls map[string]*declUse
		seeds []string
	}{
		{"caller", m.names, []string{"lib.Unused"}},
		{"writer", m.fields, []string{"lib.Config.Mode"}},
		{"one value", m.settings, []string{"lib.Config.Gain"}},
		{"reader", m.results, []string{"lib.Result.Count", "lib.tally.hits"}},
		{"function result", m.returns, []string{"lib.Stats result 1"}},
	} {
		var got []string
		for k, d := range g.decls {
			if !d.used {
				got = append(got, k)
			}
		}
		sort.Strings(got)
		if !slices.Equal(got, g.seeds) {
			t.Errorf("%s guard reports %v, want exactly %v", g.guard, got, g.seeds)
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
	returns  map[string]*declUse // "pkg.Func result i": read by a call
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
	m := &moduleUses{names: map[string]*declUse{}, fields: map[string]*declUse{}, settings: map[string]*declUse{}, results: map[string]*declUse{}, returns: map[string]*declUse{}}
	where := func(pos token.Pos) string {
		p := fset.Position(pos)
		rel, _ := filepath.Rel(root, p.Filename)
		return rel + ":" + strconv.Itoa(p.Line)
	}

	// Declarations, and the spans whose references to them do not count.
	type span struct{ from, to token.Pos }
	names := map[types.Object]string{}
	funcKey := map[*types.Func]string{} // every declared func and method
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
						funcKey[obj.(*types.Func)] = base + "." + d.Name.Name
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
					funcKey[obj.(*types.Func)] = names[obj]
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
										funcKey[info.Defs[n].(*types.Func)] = names[info.Defs[n]]
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
										if !ok || id.Name == "_" {
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
	// readAll records a struct value (or an array of them) read whole, by
	// a comparison, as a map key or through an interface: every field it
	// holds is read.
	var readAll func(t types.Type)
	readAll = func(t types.Type) {
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				f := origin(u.Field(i)).(*types.Var)
				read[f] = true
				readAll(f.Type())
			}
		case *types.Array:
			readAll(u.Elem())
		}
	}
	// toIface records e stored where a value of type to is expected.
	toIface := func(e ast.Expr, to types.Type) {
		if to == nil || !types.IsInterface(to) {
			return
		}
		if from := info.TypeOf(e); from != nil && !types.IsInterface(from) {
			readAll(from)
		}
	}
	// The result positions each function's non-test calls read (bit i for
	// result i), the functions non-test code calls or uses as a value, and
	// the identifiers static calls name their callee by.
	readPos := map[*types.Func]uint64{}
	usedFn := map[*types.Func]bool{}
	callees := map[*ast.Ident]bool{}
	// unread marks the result positions a call's statement drops: all of
	// them for an expression, go or defer statement, those assigned to _.
	unread := map[*ast.CallExpr]uint64{}
	dropBlank := func(lhs, rhs []ast.Expr) {
		if len(rhs) == 1 && len(lhs) > 1 {
			if c, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
				for i, e := range lhs {
					if isBlank(e) {
						unread[c] |= 1 << i
					}
				}
			}
			return
		}
		for i, e := range rhs {
			if c, ok := ast.Unparen(e).(*ast.CallExpr); ok && i < len(lhs) && isBlank(lhs[i]) {
				unread[c] |= 1
			}
		}
	}
	for _, ip := range paths {
		for _, f := range l.files[ip] {
			var stack []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				switch x := n.(type) {
				case *ast.ExprStmt:
					if c, ok := ast.Unparen(x.X).(*ast.CallExpr); ok {
						unread[c] = ^uint64(0)
					}
				case *ast.GoStmt:
					unread[x.Call] = ^uint64(0)
				case *ast.DeferStmt:
					unread[x.Call] = ^uint64(0)
				case *ast.BinaryExpr:
					if x.Op == token.EQL || x.Op == token.NEQ {
						readAll(info.TypeOf(x.X))
						readAll(info.TypeOf(x.Y))
					}
				case *ast.ReturnStmt:
					for i := len(stack) - 1; i >= 0; i-- {
						var sig *types.Signature
						switch fn := stack[i].(type) {
						case *ast.FuncDecl:
							sig = info.Defs[fn.Name].Type().(*types.Signature)
						case *ast.FuncLit:
							sig = info.TypeOf(fn).(*types.Signature)
						default:
							continue
						}
						if len(x.Results) == sig.Results().Len() {
							for j, e := range x.Results {
								toIface(e, sig.Results().At(j).Type())
							}
						}
						break
					}
				case *ast.CompositeLit:
					st := structOf(info.Types[x].Type)
					for i, e := range x.Elts {
						kv, keyed := e.(*ast.KeyValueExpr)
						if keyed {
							e = kv.Value
						}
						var to types.Type
						switch u := info.Types[x].Type.Underlying().(type) {
						case *types.Slice:
							to = u.Elem()
						case *types.Array:
							to = u.Elem()
						case *types.Map:
							to = u.Elem()
						}
						switch {
						case st != nil && keyed:
							to = info.TypeOf(kv.Key)
						case st != nil && i < st.NumFields():
							to = st.Field(i).Type()
						}
						toIface(e, to)
					}
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
					lhs := make([]ast.Expr, len(x.Names))
					for i, n := range x.Names {
						lhs[i] = n
						if x.Type != nil && i < len(x.Values) {
							toIface(x.Values[i], info.TypeOf(x.Type))
						}
					}
					dropBlank(lhs, x.Values)
				case *ast.CallExpr:
					if fn, id := calleeOf(info, x.Fun); fn != nil {
						callees[id] = true
						usedFn[fn] = true
						readPos[fn] |= ^unread[x]
					}
					if tv := info.Types[x.Fun]; tv.IsType() {
						if len(x.Args) == 1 {
							toIface(x.Args[0], tv.Type)
						}
					} else if sig, ok := tv.Type.(*types.Signature); ok {
						for i, e := range x.Args {
							var to types.Type
							switch n := sig.Params().Len(); {
							case sig.Variadic() && i >= n-1:
								if !x.Ellipsis.IsValid() {
									to = sig.Params().At(n - 1).Type().(*types.Slice).Elem()
								}
							case i < n:
								to = sig.Params().At(i).Type()
							}
							toIface(e, to)
						}
					}
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
							toIface(x.Rhs[i], info.TypeOf(e))
						} else {
							markChain(e, nil)
						}
					}
					if x.Tok == token.ASSIGN || x.Tok == token.DEFINE {
						dropBlank(x.Lhs, x.Rhs)
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

	// A map type reads its key type's fields (hashing and comparing them);
	// a function named other than as a call's callee is a value, and a
	// caller of a value may read any of its results.
	for _, tv := range info.Types {
		if mt, ok := tv.Type.Underlying().(*types.Map); ok {
			readAll(mt.Key())
		}
	}
	for id, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok && !callees[id] {
			fn = origin(fn).(*types.Func)
			usedFn[fn] = true
			readPos[fn] = ^uint64(0)
		}
	}
	// Interface methods the module declares and uses, whose calls stand for
	// the methods implementing them. The standard library's interfaces that
	// non-test code names fix the signatures of the methods satisfying them.
	var modIfaceMethods []*types.Func
	for fn := range usedFn {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) && inModule(fn.Pkg()) {
			modIfaceMethods = append(modIfaceMethods, fn)
		}
	}
	errType := types.Universe.Lookup("error").Type()
	for fn, key := range funcKey {
		sig := fn.Type().(*types.Signature)
		var want uint64 // the non-error result positions
		for i := 0; i < sig.Results().Len(); i++ {
			if !types.Identical(sig.Results().At(i).Type(), errType) {
				want |= 1 << i
			}
		}
		if want == 0 {
			continue
		}
		reads := readPos[fn]
		if named := concreteRecv(sig); named != nil {
			// The interface method's entry holds what its calls leave
			// unread, which is all the implementation could report.
			if slices.ContainsFunc(modIfaceMethods, func(im *types.Func) bool {
				return im.Name() == fn.Name() && implements(named, ifaceOf(im))
			}) {
				continue
			}
			if satisfiesStd(ifaces, named, fn.Name()) {
				continue
			}
		}
		if !usedFn[fn] {
			continue
		}
		for i := 0; i < sig.Results().Len(); i++ {
			if want&(1<<i) != 0 {
				m.returns[key+" result "+strconv.Itoa(i)] = &declUse{pos: where(fn.Pos()), used: reads&(1<<i) != 0}
			}
		}
	}

	for obj, key := range names {
		m.names[key] = &declUse{pos: where(obj.Pos()), used: used[obj]}
	}
	for v, key := range fieldKey {
		pos := where(v.Pos())
		m.results[key] = &declUse{pos: pos, used: read[v]}
		if v.Exported() {
			m.fields[key] = &declUse{pos: pos, used: written[v]}
			m.settings[key] = &declUse{pos: pos, used: !written[v] || varying[v] || !oneValue(consts[v], unset[v])}
		}
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

// inModule reports whether p is a package of the scanned module.
func inModule(p *types.Package) bool {
	return p != nil && (p.Path() == "vab" || strings.HasPrefix(p.Path(), "vab/"))
}

// concreteRecv is the named non-interface, non-generic type whose method
// sig is, or nil.
func concreteRecv(sig *types.Signature) *types.Named {
	if sig.Recv() == nil {
		return nil
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
		return nil
	}
	return named
}

// ifaceOf is the interface an interface method belongs to.
func ifaceOf(im *types.Func) *types.Interface {
	return im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
}

// satisfiesStd reports whether named or a pointer to it implements one of
// ifaces that the standard library declares and that has a method name.
func satisfiesStd(ifaces map[*types.Interface]bool, named *types.Named, name string) bool {
	for it := range ifaces {
		if it.NumMethods() > 0 && !inModule(it.Method(0).Pkg()) && declares(it, name) && implements(named, it) {
			return true
		}
	}
	return false
}

// implements reports whether named or a pointer to it implements it.
func implements(named *types.Named, it *types.Interface) bool {
	return types.Implements(named, it) || types.Implements(types.NewPointer(named), it)
}

// isBlank reports whether e is the blank identifier.
func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// calleeOf is the function a call expression names statically, and the
// identifier naming it; nil for a call of a func value, a conversion or a
// builtin.
func calleeOf(info *types.Info, fun ast.Expr) (*types.Func, *ast.Ident) {
	fun = ast.Unparen(fun)
	switch x := fun.(type) {
	case *ast.IndexExpr:
		fun = x.X
	case *ast.IndexListExpr:
		fun = x.X
	}
	var id *ast.Ident
	switch x := ast.Unparen(fun).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return nil, nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return nil, nil
	}
	return origin(fn).(*types.Func), id
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
