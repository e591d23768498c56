package golint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadSrc type-checks one synthetic source file as package path "p" and
// wraps it as a Package, bypassing the module loader.
func loadSrc(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	tpkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return &Package{Path: "p", Fset: fset, Files: []*ast.File{f}, Types: tpkg, Info: info}
}

func runOn(t *testing.T, src string, an *Analyzer) []Diagnostic {
	t.Helper()
	return Run([]*Package{loadSrc(t, src)}, []*Analyzer{an})
}

func wantMsgs(t *testing.T, diags []Diagnostic, substrs ...string) {
	t.Helper()
	if len(diags) != len(substrs) {
		t.Fatalf("got %d diagnostics, want %d:\n%v", len(diags), len(substrs), diags)
	}
	for i, want := range substrs {
		if !strings.Contains(diags[i].Msg, want) {
			t.Errorf("diag %d = %q, want substring %q", i, diags[i].Msg, want)
		}
	}
}

const hotSrc = `package p

type Hook interface{ Fire(int) }

type M struct {
	Probe Hook
	buf   []int
	n     int
}

func (m *M) tick() {
	m.n++
	if m.Probe != nil {
		m.Probe.Fire(m.n)
	}
}

func (m *M) slow() {
	m.buf = append(m.buf, m.n)
	m.Probe.Fire(m.n)
}
`

func TestHotPathCleanFunction(t *testing.T) {
	an := HotPathAnalyzer([]HotTarget{{PkgPath: "p", Recv: "M", Func: "tick"}})
	if diags := runOn(t, hotSrc, an); len(diags) != 0 {
		t.Fatalf("guarded tick should be clean, got %v", diags)
	}
}

func TestHotPathFlagsTargetOnly(t *testing.T) {
	// slow allocates and makes an unguarded interface call, but only when
	// it is named as a hot target.
	an := HotPathAnalyzer([]HotTarget{{PkgPath: "p", Recv: "M", Func: "slow"}})
	diags := runOn(t, hotSrc, an)
	wantMsgs(t, diags,
		"append allocates on the per-cycle path",
		"unguarded interface call m.Probe.Fire")
}

func TestHotPathAllocForms(t *testing.T) {
	src := `package p

type T struct{ a, b int }

type M struct{ s string }

func (m *M) tick() {
	_ = T{1, 2}
	_ = make([]int, 4)
	_ = new(T)
	_ = func() int { return 1 }
	_ = m.s + "x"
	defer func() {}()
	go func() {}()
}
`
	an := HotPathAnalyzer([]HotTarget{{PkgPath: "p", Recv: "M", Func: "tick"}})
	diags := runOn(t, src, an)
	var kinds []string
	for _, d := range diags {
		kinds = append(kinds, d.Msg)
	}
	joined := strings.Join(kinds, "\n")
	for _, want := range []string{
		"composite literal", "make allocates", "new allocates",
		"function literal", "string concatenation", "defer on the per-cycle path",
		"goroutine launch",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %q in:\n%s", want, joined)
		}
	}
}

func TestHotPathFlagsAtomicWrites(t *testing.T) {
	// Every sync/atomic write is a locked instruction (or a fenced
	// store) per cycle; loads are plain loads on amd64 and stay legal,
	// as do methods of the same names on non-atomic types.
	src := `package p

import "sync/atomic"

type plain struct{ n uint64 }

func (p *plain) Add(d uint64) { p.n += d }

type M struct {
	n    atomic.Uint64
	cmd  atomic.Uint32
	flag atomic.Bool
	ptr  atomic.Pointer[M]
	raw  uint64
	p    plain
}

func (m *M) tick() {
	m.n.Add(1)
	m.cmd.CompareAndSwap(0, 1)
	m.flag.Store(true)
	m.ptr.Swap(m)
	m.cmd.Or(2)
	atomic.AddUint64(&m.raw, 1)
	atomic.StoreUint64(&m.raw, 0)
	atomic.AndUint32(new(uint32), 1)
	_ = m.cmd.Load()
	_ = m.ptr.Load()
	_ = atomic.LoadUint64(&m.raw)
	m.p.Add(1)
}
`
	an := HotPathAnalyzer([]HotTarget{{PkgPath: "p", Recv: "M", Func: "tick"}})
	var atomics []Diagnostic
	for _, d := range runOn(t, src, an) {
		if strings.Contains(d.Msg, "atomic") {
			atomics = append(atomics, d)
		}
	}
	wantMsgs(t, atomics,
		"atomic m.n.Add on the per-cycle path",
		"atomic m.cmd.CompareAndSwap",
		"atomic m.flag.Store",
		"atomic m.ptr.Swap",
		"atomic m.cmd.Or",
		"atomic atomic.AddUint64",
		"atomic atomic.StoreUint64",
		"atomic atomic.AndUint32")
}

func TestHotPathOtherPackageIgnored(t *testing.T) {
	an := HotPathAnalyzer([]HotTarget{{PkgPath: "q", Recv: "M", Func: "slow"}})
	if diags := runOn(t, hotSrc, an); len(diags) != 0 {
		t.Fatalf("target in another package should not match, got %v", diags)
	}
}

func TestHotPathMissingTarget(t *testing.T) {
	// A target naming a function its loaded package does not declare is
	// stale: it must be reported, not silently skipped.
	an := HotPathAnalyzer([]HotTarget{
		{PkgPath: "p", Recv: "M", Func: "tick"},
		{PkgPath: "p", Recv: "M", Func: "tickRun"},
		{PkgPath: "p", Func: "gone"},
	})
	wantMsgs(t, runOn(t, hotSrc, an),
		"hot target M.tickRun not declared in p",
		"hot target gone not declared in p")
}

// TestHotPathFlagsCacheAccessAlloc: the per-reference targets are live.
// A make planted in Cache.Access, in a copy of internal/mem, is flagged
// exactly once.
func TestHotPathFlagsCacheAccessAlloc(t *testing.T) {
	root, modPath, err := ModuleRoot("")
	if err != nil {
		t.Fatalf("ModuleRoot: %v", err)
	}
	const sig = "func (c *Cache) Access(pa uint32, allocate bool) bool {\n"
	src := filepath.Join(root, "internal", "mem")
	copyRoot := t.TempDir()
	dst := filepath.Join(copyRoot, "internal", "mem")
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(copyRoot, "go.mod"), []byte("module "+modPath+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	planted := false
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if name == "cache.go" {
			if !strings.Contains(string(data), sig) {
				t.Fatalf("cache.go no longer declares %q", sig)
			}
			data = []byte(strings.Replace(string(data), sig, sig+"\t_ = make([]uint32, c.ways)\n", 1))
			planted = true
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if !planted {
		t.Fatal("internal/mem has no cache.go")
	}
	pkgs, err := LoadPackages(copyRoot, modPath, []string{modPath + "/internal/mem"})
	if err != nil {
		t.Fatalf("LoadPackages: %v", err)
	}
	wantMsgs(t, Run(pkgs, []*Analyzer{HotPathAnalyzer(DefaultHotTargets)}),
		"Access: make allocates on the per-cycle path")
}

const probeSrc = `package p

type Hook interface{ Fire(int) }

type M struct {
	Probe Hook
	tel   Hook
	Fault Hook
	n     int
}

func (m *M) guarded() {
	if m.Probe != nil {
		m.Probe.Fire(1)
	}
	if m.tel != nil && m.n > 0 {
		m.tel.Fire(2)
	}
}

func (m *M) unguarded() {
	m.Probe.Fire(3)
	if m.n > 0 {
		m.tel.Fire(4)
	}
}

func (m *M) fault() {
	m.Fault.Fire(5)
}
`

func TestProbeGuardGuardedClean(t *testing.T) {
	diags := runOn(t, probeSrc, ProbeGuardAnalyzer())
	wantMsgs(t, diags,
		"m.Probe.Fire without a dominating nil check",
		"m.tel.Fire without a dominating nil check")
}

func TestProbeGuardIgnoresOtherFields(t *testing.T) {
	// m.Fault is interface-typed but not a probe field; the guard for it
	// lives in its caller by construction.
	for _, d := range runOn(t, probeSrc, ProbeGuardAnalyzer()) {
		if strings.Contains(d.Msg, "Fault") {
			t.Errorf("Fault field should be exempt: %v", d)
		}
	}
}

func TestProbeGuardElseBranchNotGuarded(t *testing.T) {
	src := `package p

type Hook interface{ Fire() }

type M struct{ Probe Hook }

func (m *M) f() {
	if m.Probe != nil {
		_ = 1
	} else {
		m.Probe.Fire()
	}
}
`
	diags := runOn(t, src, ProbeGuardAnalyzer())
	wantMsgs(t, diags, "m.Probe.Fire without a dominating nil check")
}

func TestDeterminism(t *testing.T) {
	src := `package p

import (
	"math/rand"
	"time"
)

func bad() (int64, int) {
	t := time.Now()
	_ = time.Since(t)
	return t.Unix(), rand.Intn(6)
}

func good(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	time.Sleep(time.Millisecond)
	return r.Intn(6)
}
`
	diags := runOn(t, src, DeterminismAnalyzer())
	wantMsgs(t, diags,
		"time.Now reads the wall clock",
		"time.Since reads the wall clock",
		"rand.Intn draws from the global generator")
}

// TestRepoInvariants is the real gate: every production package of the
// module must come through the full analyzer suite with zero
// diagnostics. This is the programmatic equivalent of cmd/vaxvet.
func TestRepoInvariants(t *testing.T) {
	root, modPath, err := ModuleRoot("")
	if err != nil {
		t.Fatalf("ModuleRoot: %v", err)
	}
	paths, err := ListPackages(root, modPath)
	if err != nil {
		t.Fatalf("ListPackages: %v", err)
	}
	if len(paths) < 10 {
		t.Fatalf("suspiciously few packages (%d): %v", len(paths), paths)
	}
	pkgs, err := LoadPackages(root, modPath, paths)
	if err != nil {
		t.Fatalf("LoadPackages: %v", err)
	}
	for _, d := range Run(pkgs, All()) {
		t.Errorf("%s", d)
	}
}

func TestListPackagesFindsKnown(t *testing.T) {
	root, modPath, err := ModuleRoot("")
	if err != nil {
		t.Fatalf("ModuleRoot: %v", err)
	}
	paths, err := ListPackages(root, modPath)
	if err != nil {
		t.Fatalf("ListPackages: %v", err)
	}
	has := func(p string) bool {
		for _, q := range paths {
			if q == p {
				return true
			}
		}
		return false
	}
	for _, want := range []string{modPath, modPath + "/internal/ebox", modPath + "/internal/golint"} {
		if !has(want) {
			t.Errorf("ListPackages missing %s in %v", want, paths)
		}
	}
}
