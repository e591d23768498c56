// Package ulint is the control-store static analyzer: it proves, over
// the assembled ROM and its dispatch tables, the properties the
// measurement methodology assumes but the per-word checks in
// internal/ucode cannot see.
//
// Where ucode.Verify inspects one microword at a time and trusts labels
// as entry points, ulint reconstructs the precise inter-flow control
// flow graph the EBOX actually executes — dispatch tables from
// internal/urom, opcode entry points, the shared specifier and B-DISP
// flows, trap service entries — and runs whole-program passes over it:
//
//   - attribution completeness: every histogram bucket the monitor can
//     tick on a reachable microword maps to exactly one activity ×
//     cycle-class cell of the Table 8 CPI decomposition, using the same
//     analysis.BucketCell map the dynamic reduction applies, so static
//     and dynamic attribution cannot diverge;
//   - flow termination: every flow entered from a dispatch table
//     reaches an end-of-instruction exit on all paths, and every cycle
//     in a flow closes through a bounded SeqLoop back edge;
//   - path legality: trap service flows use only the sequencer
//     functions the EBOX trap loop accepts, PTE reads appear only
//     inside trap flows, IB-stall wait words are entered only by
//     dispatch (never by sequential fall-through or jump), and every
//     uret return site is a legal landing for the B-DISP subroutine;
//   - dead-word detection rooted at the true dispatch entry points, so
//     a labelled flow nothing dispatches into is found dead even though
//     the label-rooted verifier considers it live;
//   - per-flow worst-case cycle bounds (excluding memory and IB stalls,
//     which the control store cannot bound), surfaced by vaxdiag.
//
// A clean report makes the paper's central invariant — every counted
// cycle is attributed to exactly one cell of the CPI decomposition —
// a property of the control store itself, proven for all workloads
// rather than observed on the ones that were run.
package ulint

import (
	"fmt"
	"sort"
	"strings"

	"vax780/internal/ucode"
	"vax780/internal/urom"
)

// Kind classifies an analyzer finding.
type Kind uint8

// Finding kinds.
const (
	KindVerify         Kind = iota // wrapped ucode.Verify issue (see VerifyKind)
	KindDeadWord                   // unreachable from every dispatch entry point
	KindUnattributed               // tickable bucket outside the CPI decomposition
	KindNonTerminating             // flow cycle with no bounded loop back edge
	KindNoExit                     // flow path that cannot reach an exit
	KindTrapIllegalSeq             // trap-flow word with a sequencer the trap loop rejects
	KindTrapIllegalIB              // trap-flow word carrying an I-stream request
	KindPTEOutsideTrap             // PTE read reachable outside trap service flows
	KindIllegalStall               // IB-stall word entered by fall-through or jump
	KindBadRoot                    // dispatch-table entry outside the image
	KindURetBadTarget              // uret return site landing somewhere a return must never enter
	NumKinds
)

var kindNames = [...]string{
	"verify", "dead-word", "unattributed", "non-terminating", "no-exit",
	"trap-illegal-seq", "trap-illegal-ib", "pte-outside-trap",
	"illegal-stall", "bad-root", "uret-bad-target",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", k)
}

// Finding is one analyzer result.
type Finding struct {
	Kind     Kind
	Severity ucode.Severity
	Addr     uint16
	// Flow names the flow entry label under which the finding was
	// discovered, when the pass is flow-scoped ("" for global passes).
	Flow string
	// VerifyKind carries the underlying per-word issue kind when Kind
	// is KindVerify.
	VerifyKind ucode.IssueKind
	Msg        string
}

func (f Finding) String() string {
	loc := fmt.Sprintf("%05o", f.Addr)
	if f.Flow != "" {
		loc += " (" + f.Flow + ")"
	}
	return fmt.Sprintf("%s: %s: [%s] %s", loc, f.Severity, f.Kind, f.Msg)
}

// Report is the full analyzer output over one image.
type Report struct {
	Findings []Finding

	// Attribution-completeness proof summary.
	Words             int // microwords in the image, excluding the reset word
	Reachable         int // reachable from the dispatch entry points
	TickableBuckets   int // (address, count-set) buckets the EBOX can pulse
	AttributedBuckets int // of those, mapped to a Table 8 cell

	// Bounds holds per-flow worst-case cycle bounds for flows that
	// passed the termination checks.
	Bounds []FlowBound
}

// Clean reports whether the analysis found no findings at all.
func (r *Report) Clean() bool { return len(r.Findings) == 0 }

// Errors returns the findings graded SevError.
func (r *Report) Errors() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Severity == ucode.SevError {
			out = append(out, f)
		}
	}
	return out
}

// ByKind returns the findings of one kind.
func (r *Report) ByKind(k Kind) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Kind == k {
			out = append(out, f)
		}
	}
	return out
}

// Proven reports whether attribution completeness holds: every tickable
// bucket on every reachable word is attributed to exactly one CPI cell.
func (r *Report) Proven() bool {
	return r.TickableBuckets == r.AttributedBuckets && len(r.ByKind(KindUnattributed)) == 0
}

// Summary renders the one-paragraph verdict vaxlint and vaxdiag print.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "control store: %d words, %d reachable from dispatch roots\n",
		r.Words, r.Reachable)
	fmt.Fprintf(&b, "attribution: %d/%d tickable buckets mapped to a CPI cell",
		r.AttributedBuckets, r.TickableBuckets)
	if r.Proven() {
		b.WriteString(" (complete)\n")
	} else {
		b.WriteString(" (INCOMPLETE)\n")
	}
	if len(r.Findings) == 0 {
		b.WriteString("findings: none")
	} else {
		errs := len(r.Errors())
		fmt.Fprintf(&b, "findings: %d (%d errors, %d warnings)",
			len(r.Findings), errs, len(r.Findings)-errs)
	}
	return b.String()
}

// analysis bundles the per-run state shared by the passes.
type analyzer struct {
	img   *ucode.Image
	roots Roots
	cfg   *cfg

	// reached is the dispatch-rooted reachable set (passDeadWords).
	reached []bool
	// inTrap marks the words of the microtrap service flows
	// (passTrapLegality).
	inTrap []bool
	// badFlows marks flow entries with termination findings, which the
	// bounds pass must skip (a longest path over a cyclic graph is
	// meaningless).
	badFlows map[uint16]bool

	findings map[findingKey]Finding
}

type findingKey struct {
	kind Kind
	vk   ucode.IssueKind
	addr uint16
}

func (a *analyzer) add(f Finding) {
	k := findingKey{kind: f.Kind, vk: f.VerifyKind, addr: f.Addr}
	if prev, dup := a.findings[k]; dup {
		// Keep the first flow attribution; the finding itself is one.
		_ = prev
		return
	}
	a.findings[k] = f
}

func (a *analyzer) addf(k Kind, sev ucode.Severity, addr uint16, flow string, format string, args ...interface{}) {
	a.add(Finding{
		Kind:     k,
		Severity: sev,
		Addr:     addr,
		Flow:     flow,
		Msg:      fmt.Sprintf(format, args...),
	})
}

// AnalyzeROM runs the analyzer over an assembled ROM, deriving the
// roots from its dispatch tables.
func AnalyzeROM(rom *urom.ROM) *Report {
	return Analyze(rom.Image, RootsFromROM(rom))
}

// Analyze runs every pass over an image with explicit roots. Most
// callers use AnalyzeROM; tests construct small images and roots
// directly.
func Analyze(img *ucode.Image, roots Roots) *Report {
	a := &analyzer{
		img:      img,
		roots:    roots,
		badFlows: make(map[uint16]bool),
		findings: make(map[findingKey]Finding),
	}

	// Per-word checks first: the whole-program passes assume targets in
	// range, so a structurally broken image reports and stops early.
	structural := false
	for _, issue := range ucode.Verify(img) {
		a.add(Finding{
			Kind:       KindVerify,
			Severity:   issue.Severity,
			Addr:       issue.Addr,
			VerifyKind: issue.Kind,
			Msg:        issue.Msg,
		})
		switch issue.Kind {
		case ucode.IssueJumpRange, ucode.IssueLoopRange, ucode.IssueCondRange,
			ucode.IssueFallThroughEnd, ucode.IssueUnknownSeq:
			structural = true
		}
	}
	if !a.checkRoots() {
		structural = true
	}

	r := &Report{Words: img.Size() - 1}
	if !structural {
		a.cfg = buildCFG(img, a.roots)
		a.passDeadWords(r)
		a.passAttribution(r)
		a.passTrapLegality()
		a.passStallEntry()
		a.passReturnSites()
		a.passTermination()
		a.passBounds(r)
	}

	for _, f := range a.findings {
		r.Findings = append(r.Findings, f)
	}
	sort.Slice(r.Findings, func(i, j int) bool {
		if r.Findings[i].Addr != r.Findings[j].Addr {
			return r.Findings[i].Addr < r.Findings[j].Addr
		}
		if r.Findings[i].Kind != r.Findings[j].Kind {
			return r.Findings[i].Kind < r.Findings[j].Kind
		}
		return r.Findings[i].VerifyKind < r.Findings[j].VerifyKind
	})
	return r
}

// checkRoots validates that every dispatch-table entry lands inside the
// image; an out-of-range root means the tables and the image do not
// belong together and the graph passes cannot run.
func (a *analyzer) checkRoots() bool {
	ok := true
	n := a.img.Size()
	check := func(addr uint16, what string) {
		if int(addr) >= n {
			a.addf(KindBadRoot, ucode.SevError, addr, "",
				"%s entry %05o outside the %d-word image", what, addr, n)
			ok = false
		}
	}
	for _, e := range a.roots.all() {
		check(e.addr, e.what)
	}
	return ok
}
