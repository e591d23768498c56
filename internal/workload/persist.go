package workload

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"vax780/internal/vax"
)

// programGob is the wire form of a Program (its maps are unexported).
type programGob struct {
	Pages map[uint32][]byte
	Used  map[uint32][]bool
}

// GobEncode implements gob.GobEncoder for the sparse code image.
func (p *Program) GobEncode() ([]byte, error) {
	pg := programGob{
		Pages: make(map[uint32][]byte, len(p.pages)),
		Used:  make(map[uint32][]bool, len(p.pages)),
	}
	for k, v := range p.pages {
		pg.Pages[k] = v.bytes[:]
		pg.Used[k] = v.used[:]
	}
	var buf writerBuffer
	if err := gob.NewEncoder(&buf).Encode(pg); err != nil {
		return nil, err
	}
	return buf.b, nil
}

// GobDecode implements gob.GobDecoder. Every page needs its used map and
// every used map its page.
func (p *Program) GobDecode(data []byte) error {
	var pg programGob
	if err := gob.NewDecoder(&readerBuffer{b: data}).Decode(&pg); err != nil {
		return err
	}
	p.pages = make(map[uint32]*codePage, len(pg.Pages))
	p.last = nil
	for k, v := range pg.Pages {
		if len(v) != pageSize {
			return fmt.Errorf("workload: bad page size %d in trace file", len(v))
		}
		u, ok := pg.Used[k]
		if !ok {
			return fmt.Errorf("workload: page %#x has no used map in trace file", k)
		}
		if len(u) != pageSize {
			return fmt.Errorf("workload: bad used-map size %d in trace file", len(u))
		}
		page := new(codePage)
		copy(page.bytes[:], v)
		copy(page.used[:], u)
		p.pages[k] = page
	}
	for k := range pg.Used {
		if _, ok := pg.Pages[k]; !ok {
			return fmt.Errorf("workload: used map %#x has no page in trace file", k)
		}
	}
	return nil
}

type writerBuffer struct{ b []byte }

func (w *writerBuffer) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

type readerBuffer struct {
	b []byte
	i int
}

func (r *readerBuffer) Read(p []byte) (int, error) {
	if r.i >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.i:])
	r.i += n
	return n, nil
}

// WriteTo serializes the complete trace (program image + items), so a
// generated workload can be archived and replayed bit-identically — or a
// user-supplied trace in the same format can be run on the measured
// machine.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	if err := gob.NewEncoder(cw).Encode(t); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// ReadTrace deserializes a trace written by WriteTo. A trace file comes
// from outside, so every item is checked before the machine sees it: an
// item of unknown kind, an instruction item without an instruction, or
// an instruction vax.Validate rejects (undefined opcode, specifier count
// off its opcode's, out-of-range operands) fails the read.
func ReadTrace(r io.Reader) (*Trace, error) {
	t := &Trace{}
	if err := gob.NewDecoder(r).Decode(t); err != nil {
		return nil, fmt.Errorf("workload: reading trace: %w", err)
	}
	if t.Program == nil {
		return nil, fmt.Errorf("workload: trace file has no program image")
	}
	// The EBOX dispatches from the record, so the code image the IB
	// fetches must hold each instruction's encoding at its PC.
	var enc []byte
	for i := range t.Items {
		it := &t.Items[i]
		if err := it.validate(); err != nil {
			return nil, fmt.Errorf("workload: trace item %d: %w", i, err)
		}
		if it.Kind != KindInstr {
			continue
		}
		enc = vax.Encode(enc[:0], it.In)
		for j, want := range enc {
			if got, ok := t.Program.Byte(it.In.PC + uint32(j)); !ok || got != want {
				return nil, fmt.Errorf("workload: trace item %d: code image at PC %#x does not hold its %s encoding",
					i, it.In.PC, it.In.Op)
			}
		}
	}
	return t, nil
}

// validate reports whether the machine can execute the item.
func (it *Item) validate() error {
	switch it.Kind {
	case KindInterrupt:
		return nil
	case KindInstr:
		if it.In == nil {
			return errors.New("instruction item without an instruction")
		}
		return vax.Validate(it.In)
	}
	return fmt.Errorf("unknown item kind %d", it.Kind)
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}
