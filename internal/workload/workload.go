// Package workload defines the executable workload representation — a
// program image of real VAX instruction bytes plus a trace of executed
// items — and the synthetic workload generators standing in for the
// paper's five measurement experiments (two live timesharing systems and
// three Remote Terminal Emulator scripts).
//
// Live 1984 VMS timesharing workloads are unobtainable; the generators
// are parameterised directly by the paper's published distributions
// (opcode group mix, specifier modes by position, branch-taken ratios,
// loop iteration counts, register mask sizes, string lengths, OS event
// headways), so the synthetic streams exercise the same microcode paths
// and stall mechanisms at the same relative rates. See DESIGN.md §2.
package workload

import (
	"fmt"

	"vax780/internal/vax"
)

// Kind discriminates trace items.
type Kind int

// Trace item kinds.
const (
	// KindInstr is an ordinary instruction execution.
	KindInstr Kind = iota
	// KindInterrupt is a hardware or software interrupt delivery: the
	// machine runs the interrupt microcode and redirects to HandlerPC.
	KindInterrupt
)

// Item is one element of an executed trace.
type Item struct {
	Kind Kind

	// In is the instruction record for KindInstr.
	In *vax.Instr

	// HandlerPC is the service routine entry for KindInterrupt.
	HandlerPC uint32

	// SwitchTo is the new process context installed by an LDPCTX
	// instruction (valid when In.Op == vax.LDPCTX).
	SwitchTo uint32
}

// Stream yields trace items.
type Stream interface {
	Next() (*Item, bool)
}

// SliceStream adapts a pre-built trace to the Stream interface.
type SliceStream struct {
	items []Item
	pos   int
}

// NewSliceStream wraps items.
func NewSliceStream(items []Item) *SliceStream {
	return &SliceStream{items: items}
}

// Next returns the next item: a pointer into the wrapped slice, so
// streaming a trace allocates nothing.
func (s *SliceStream) Next() (*Item, bool) {
	if s.pos >= len(s.items) {
		return nil, false
	}
	it := &s.items[s.pos]
	s.pos++
	return it, true
}

// Len returns the total number of items.
func (s *SliceStream) Len() int { return len(s.items) }

// Reset rewinds the stream.
func (s *SliceStream) Reset() { s.pos = 0 }

// Program is the materialized code image: the actual instruction bytes at
// their virtual addresses, from which the IB fetches. It is sparse and
// page-granular.
type Program struct {
	pages map[uint32]*codePage

	// last memoizes Put's most recent page: the generator lays code at
	// a moving cursor, so most writes land on the page before.
	lastPg uint32
	last   *codePage
}

// codePage is one page of the image: its bytes and which of them have
// been written.
type codePage struct {
	bytes [pageSize]byte
	used  [pageSize]bool
}

const pageSize = 512

// NewProgram returns an empty code image.
func NewProgram() *Program {
	return &Program{pages: make(map[uint32]*codePage)}
}

// Put writes the encoded bytes of an instruction at va. Overlapping
// writes must agree byte-for-byte (loops legitimately revisit addresses);
// a conflict reports a generator layout bug.
func (p *Program) Put(va uint32, b []byte) error {
	for len(b) > 0 {
		pg, off := va/pageSize, va%pageSize
		page := p.last
		if page == nil || p.lastPg != pg {
			if page = p.pages[pg]; page == nil {
				page = new(codePage)
				p.pages[pg] = page
			}
			p.lastPg, p.last = pg, page
		}
		run := b[:min(len(b), int(pageSize-off))]
		for i, by := range run {
			o := off + uint32(i)
			if page.used[o] && page.bytes[o] != by {
				return fmt.Errorf("workload: code conflict at VA %#x: %#02x vs %#02x",
					va+uint32(i), page.bytes[o], by)
			}
			page.bytes[o] = by
			page.used[o] = true
		}
		va += uint32(len(run))
		b = b[len(run):]
	}
	return nil
}

// PutInstr encodes in and places it at its PC.
func (p *Program) PutInstr(in *vax.Instr) error {
	return p.Put(in.PC, vax.Encode(nil, in))
}

// Byte returns the code byte at va.
func (p *Program) Byte(va uint32) (byte, bool) {
	page := p.pages[va/pageSize]
	if page == nil {
		return 0, false
	}
	off := va % pageSize
	return page.bytes[off], page.used[off]
}

// Page returns the bytes of the page containing va, or nil if nothing
// is materialized there: the I-Fetch stage's page source, which keeps
// the hot code page instead of looking up each byte.
func (p *Program) Page(va uint32) *[pageSize]byte {
	if page := p.pages[va/pageSize]; page != nil {
		return &page.bytes
	}
	return nil
}

// Bytes returns the number of materialized code bytes.
func (p *Program) Bytes() int {
	n := 0
	for _, page := range p.pages {
		for _, u := range page.used {
			if u {
				n++
			}
		}
	}
	return n
}

// Trace is a complete generated workload: the program image plus the
// execution trace over it. Items are values; a generated trace carves
// the instruction records they point to from chunked arenas, and a
// replayed execution shares its original's record (see DESIGN.md
// §15.1).
type Trace struct {
	Name    string
	Program *Program
	Items   []Item
}

// Stream returns a fresh stream over the trace.
func (t *Trace) Stream() *SliceStream { return NewSliceStream(t.Items) }

// Instructions counts KindInstr items.
func (t *Trace) Instructions() int {
	n := 0
	for _, it := range t.Items {
		if it.Kind == KindInstr {
			n++
		}
	}
	return n
}
