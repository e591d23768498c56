package golint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotTarget names one function on the per-cycle hot path: the EBOX and
// IBOX tick functions, the monitor's inlined count pulse, the flight
// recorder's store, and the telemetry hooks a traced run calls every
// cycle while its tracer collects, which together run once per
// simulated 200 ns cycle. Recv is the receiver
// type name ("" for plain functions).
type HotTarget struct {
	PkgPath string
	Recv    string
	Func    string
}

// DefaultHotTargets is the repository's per-cycle path (the sequencer
// loop runs the plain cycle inline; tick serves the rest, and observe
// the cycles at an observer's horizon, every cycle while a tracer
// collects), the per-specifier dispatch, and the per-reference path
// below them (TB probes, cache lookups, IB refills).
var DefaultHotTargets = []HotTarget{
	{PkgPath: "vax780/internal/ebox", Recv: "EBOX", Func: "tick"},
	{PkgPath: "vax780/internal/ebox", Recv: "EBOX", Func: "run"},
	{PkgPath: "vax780/internal/ebox", Recv: "EBOX", Func: "observe"},
	{PkgPath: "vax780/internal/ebox", Recv: "EBOX", Func: "regate"},
	{PkgPath: "vax780/internal/ebox", Recv: "EBOX", Func: "dispatchSpec"},
	{PkgPath: "vax780/internal/ibox", Recv: "IBox", Func: "Tick"},
	{PkgPath: "vax780/internal/ibox", Recv: "IBox", Func: "tickSlow"},
	{PkgPath: "vax780/internal/ibox", Recv: "IBox", Func: "accept"},
	{PkgPath: "vax780/internal/mem", Recv: "Cache", Func: "Access"},
	{PkgPath: "vax780/internal/mem", Recv: "TB", Func: "Lookup"},
	{PkgPath: "vax780/internal/mem", Recv: "System", Func: "Translate"},
	{PkgPath: "vax780/internal/upc", Recv: "Monitor", Func: "Fast"},
	{PkgPath: "vax780/internal/upc", Recv: "Monitor", Func: "TickFast"},
	{PkgPath: "vax780/internal/upc", Recv: "FlightRecorder", Func: "Record"},
	{PkgPath: "vax780/internal/telemetry", Recv: "Telemetry", Func: "Cycle"},
	{PkgPath: "vax780/internal/telemetry", Recv: "Tracer", Func: "cycle"},
}

// HotPathAnalyzer flags heap allocations, defers, goroutine launches,
// sync/atomic writes and unguarded interface-method calls inside the
// named hot functions. These functions execute once per simulated cycle
// — hundreds of millions of times per composite run — so an allocation,
// a locked read-modify-write or an un-devirtualized interface dispatch
// there is a measured regression (devirtualizing the monitor hook
// bought ~18% on the cycle loop). Atomic loads stay legal: on amd64
// they are plain loads. Guarded
// interface calls (`if e.Probe != nil { e.Probe.Cycle(...) }`) are the
// sanctioned escape hatch for optional hooks. A target whose package is
// loaded but declares no such function is itself a diagnostic, so a
// rename or deletion cannot silently drop a function from the check.
func HotPathAnalyzer(targets []HotTarget) *Analyzer {
	an := &Analyzer{
		Name: "hotpath",
		Doc:  "forbid allocations and unguarded interface calls in per-cycle functions",
	}
	an.Run = func(pass *Pass) {
		found := make(map[[2]string]bool)
		for _, t := range targets {
			if t.PkgPath == pass.Pkg.Path {
				found[[2]string{t.Recv, t.Func}] = false
			}
		}
		if len(found) == 0 {
			return
		}
		for _, file := range pass.Pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				key := [2]string{recvTypeName(fd), fd.Name.Name}
				if _, ok := found[key]; !ok {
					continue
				}
				found[key] = true
				checkHotBody(pass, fd)
			}
		}
		for _, t := range targets {
			if t.PkgPath != pass.Pkg.Path || found[[2]string{t.Recv, t.Func}] {
				continue
			}
			name := t.Func
			if t.Recv != "" {
				name = t.Recv + "." + t.Func
			}
			pass.Reportf(pass.Pkg.Files[0].Package,
				"hot target %s not declared in %s; update the target list", name, t.PkgPath)
		}
	}
	return an
}

// recvTypeName extracts the receiver's type name, stripping pointers.
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func checkHotBody(pass *Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	WalkStack(fd.Body, func(n ast.Node, stack []ast.Node) {
		switch v := n.(type) {
		case *ast.CompositeLit:
			pass.Reportf(v.Pos(), "%s: composite literal allocates on the per-cycle path", name)
		case *ast.FuncLit:
			pass.Reportf(v.Pos(), "%s: function literal allocates on the per-cycle path", name)
		case *ast.DeferStmt:
			pass.Reportf(v.Pos(), "%s: defer on the per-cycle path", name)
		case *ast.GoStmt:
			pass.Reportf(v.Pos(), "%s: goroutine launch on the per-cycle path", name)
		case *ast.BinaryExpr:
			if v.Op == token.ADD && isStringType(pass.Pkg, v.X) {
				pass.Reportf(v.Pos(), "%s: string concatenation allocates on the per-cycle path", name)
			}
		case *ast.CallExpr:
			for _, b := range []string{"make", "new", "append"} {
				if IsBuiltinCall(pass.Pkg, v, b) {
					pass.Reportf(v.Pos(), "%s: %s allocates on the per-cycle path", name, b)
				}
			}
			if op, ok := atomicWrite(pass.Pkg, v); ok {
				pass.Reportf(v.Pos(),
					"%s: atomic %s on the per-cycle path; count in a plain field and publish per event", name, op)
			}
			if recv, ok := InterfaceReceiver(pass.Pkg, v); ok && !NilGuarded(stack, recv) {
				pass.Reportf(v.Pos(),
					"%s: unguarded interface call %s.%s on the per-cycle path; devirtualize or nil-guard it",
					name, recv, v.Fun.(*ast.SelectorExpr).Sel.Name)
			}
		}
	})
}

// atomicWriteOps are the sync/atomic writes: the read-modify-write and
// store methods of the typed atomics, and the prefixes of the
// package-level functions (AddUint64, CompareAndSwapInt32, OrUint32…).
var atomicWriteOps = []string{"Add", "Swap", "CompareAndSwap", "Store", "And", "Or"}

// atomicWrite reports whether call is a sync/atomic write, typed
// (c.n.Add(1)) or package-level (atomic.AddUint64(&n, 1)), and returns
// the called expression.
func atomicWrite(pkg *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	path, _, isPkgFunc := PkgFuncCall(pkg, call)
	if !isPkgFunc {
		s, ok := pkg.Info.Selections[sel]
		if !ok || s.Kind() != types.MethodVal || s.Obj().Pkg() == nil {
			return "", false
		}
		path = s.Obj().Pkg().Path()
	}
	if path != "sync/atomic" {
		return "", false
	}
	for _, op := range atomicWriteOps {
		if strings.HasPrefix(sel.Sel.Name, op) {
			return types.ExprString(sel), true
		}
	}
	return "", false
}

func isStringType(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// probeFieldNames are the optional-hook fields the telemetry layer
// attaches: nil on an uninstrumented machine by design, so every call
// through them must be dominated by a nil check. (The monitor's fault
// hook is guarded one frame up by construction and is not in this set.)
var probeFieldNames = map[string]bool{
	"Probe": true,
	"probe": true,
	"tel":   true,
}

// ProbeGuardAnalyzer enforces the nil-check-before-probe pattern
// everywhere: a method call through a Probe/probe/tel interface field
// must sit inside `if <field> != nil { ... }`. The hooks are nil unless
// telemetry is attached, so an unguarded call is a latent panic on
// every uninstrumented run.
func ProbeGuardAnalyzer() *Analyzer {
	an := &Analyzer{
		Name: "probeguard",
		Doc:  "require nil guards on telemetry probe hook calls",
	}
	an.Run = func(pass *Pass) {
		for _, file := range pass.Pkg.Files {
			WalkStack(file, func(n ast.Node, stack []ast.Node) {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return
				}
				field, ok := sel.X.(*ast.SelectorExpr)
				if !ok || !probeFieldNames[field.Sel.Name] {
					return
				}
				recv, isIface := InterfaceReceiver(pass.Pkg, call)
				if !isIface {
					return
				}
				if !NilGuarded(stack, recv) {
					pass.Reportf(call.Pos(),
						"call to probe hook %s.%s without a dominating nil check",
						recv, sel.Sel.Name)
				}
			})
		}
	}
	return an
}

// bannedRandFuncs: package-level math/rand calls draw from the global
// generator — shared, lockable, unseedable-per-run state that breaks
// replayable runs. Constructing an explicitly seeded generator is the
// sanctioned pattern, so the constructors stay legal.
var allowedRandFuncs = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// DeterminismExemptions names the packages allowed to read the wall
// clock. The run ledger is the repository's one sanctioned home for
// host-side timestamps, rates, and ETAs (they describe the host, never
// the simulation, and are stripped by runlog.StripWallClock before any
// determinism comparison); vaxtop renders those live observations and
// vaxbench datestamps benchmark-history rows. Everything else —
// including the whole simulation, the pools, the supervisor, and the
// telemetry layer — remains clock-free, which is what keeps runs pure
// functions of seed and configuration.
var DeterminismExemptions = map[string]bool{
	"vax780/internal/runlog": true,
	"vax780/cmd/vaxtop":      true,
	"vax780/cmd/vaxbench":    true,

	// The vaxd service layer: admission token buckets refill on wall
	// time and job deadlines are wall deadlines. Both sit strictly
	// outside the runs they admit — a job's simulated bytes stay a pure
	// function of its spec, which is what lets the service serve cached
	// bundles as authoritative results.
	"vax780/internal/jobs": true,
	"vax780/cmd/vaxd":      true,
}

// DeterminismAnalyzer flags wall-clock reads (time.Now/Since/Until) and
// global math/rand draws. Every run of the simulator is specified to be
// a pure function of its seed and configuration — that is what makes
// histograms diffable across machines and crashes replayable by the
// supervisor — and wall-clock or global-generator input silently breaks
// it. time.Sleep and time.Duration remain legal: pacing a retry loop
// consumes wall time but does not let it into the simulation. The
// packages in DeterminismExemptions (the observability layer's
// wall-clock home) are skipped.
func DeterminismAnalyzer() *Analyzer {
	an := &Analyzer{
		Name: "determinism",
		Doc:  "forbid wall-clock reads and global rand draws in run paths",
	}
	an.Run = func(pass *Pass) {
		if DeterminismExemptions[pass.Pkg.Path] {
			return
		}
		for _, file := range pass.Pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				path, name, ok := PkgFuncCall(pass.Pkg, call)
				if !ok {
					return true
				}
				switch {
				case path == "time" && (name == "Now" || name == "Since" || name == "Until"):
					pass.Reportf(call.Pos(),
						"time.%s reads the wall clock; runs must be functions of seed and config", name)
				case path == "math/rand" && !allowedRandFuncs[name]:
					pass.Reportf(call.Pos(),
						"rand.%s draws from the global generator; use a seeded *rand.Rand", name)
				}
				return true
			})
		}
	}
	return an
}

// DefaultAtomicWritePaths names the packages whose file commits must be
// crash-safe: the result store (published bundles survive a crash
// mid-commit), the histogram persistence layer (upc.AtomicWriteFile is
// the blessed staging-write → fsync → rename pattern), and the root
// package's checkpoint writer.
var DefaultAtomicWritePaths = map[string]bool{
	"vax780":                  true,
	"vax780/internal/castore": true,
	"vax780/internal/upc":     true,
}

// AtomicWriteAnalyzer proves the durable-commit discipline in the named
// packages: result and checkpoint files reach disk through staging
// write → fsync → atomic rename, never a bare write. Concretely, per
// function body:
//
//   - os.WriteFile is banned outright — it commits bytes at their final
//     path with no fsync, so a crash can publish a torn file;
//   - os.Create / os.CreateTemp / os.OpenFile must be accompanied by a
//     .Sync() call in the same function, unless the open flags include
//     O_APPEND (append-only journals sync per record at the call site
//     that writes them);
//   - os.Rename — the publish step — likewise requires a .Sync() in the
//     same function, so nothing is renamed into place before its bytes
//     (or the directory entry) are durable.
func AtomicWriteAnalyzer(paths map[string]bool) *Analyzer {
	an := &Analyzer{
		Name: "atomicwrite",
		Doc:  "require staging-write, fsync, atomic-rename on result and checkpoint commits",
	}
	an.Run = func(pass *Pass) {
		if !paths[pass.Pkg.Path] {
			return
		}
		for _, file := range pass.Pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkAtomicWrites(pass, fd)
			}
		}
	}
	return an
}

func checkAtomicWrites(pass *Pass, fd *ast.FuncDecl) {
	// One scan for the sanctioning Sync call, one for the os file
	// operations it licenses.
	hasSync := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sync" {
				hasSync = true
			}
		}
		return true
	})
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		path, fn, ok := PkgFuncCall(pass.Pkg, call)
		if !ok || path != "os" {
			return true
		}
		switch fn {
		case "WriteFile":
			pass.Reportf(call.Pos(),
				"%s: os.WriteFile commits bytes with no fsync; stage, Sync, then rename into place", name)
		case "Create", "CreateTemp":
			if !hasSync {
				pass.Reportf(call.Pos(),
					"%s: os.%s with no Sync in the same function; a crash can publish a torn file", name, fn)
			}
		case "OpenFile":
			if openFlagsInclude(call, "O_APPEND") {
				return true
			}
			if !hasSync {
				pass.Reportf(call.Pos(),
					"%s: os.OpenFile with no Sync in the same function; a crash can publish a torn file", name)
			}
		case "Rename":
			if !hasSync {
				pass.Reportf(call.Pos(),
					"%s: os.Rename publishes a file whose bytes were never synced in this function", name)
			}
		}
		return true
	})
}

// openFlagsInclude reports whether an os.OpenFile call's flag argument
// mentions the named os flag constant.
func openFlagsInclude(call *ast.CallExpr, flag string) bool {
	if len(call.Args) < 2 {
		return false
	}
	found := false
	ast.Inspect(call.Args[1], func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == flag {
			found = true
		}
		return true
	})
	return found
}

// All returns the repository's analyzer suite with default
// configuration.
func All() []*Analyzer {
	return []*Analyzer{
		HotPathAnalyzer(DefaultHotTargets),
		ProbeGuardAnalyzer(),
		DeterminismAnalyzer(),
		AtomicWriteAnalyzer(DefaultAtomicWritePaths),
	}
}
