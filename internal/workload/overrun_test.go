package workload

import (
	"strings"
	"testing"
)

// TestCodeOverrunIsAnError: a process's code cursor only moves forward,
// so a long enough run would lay code into the process's data region
// (and the kernel's into the system data). Generate must fail naming
// the region instead. The cursors start just below their bounds, so a
// short run reaches them.
func TestCodeOverrunIsAnError(t *testing.T) {
	p := Custom(CustomConfig{Name: "overrun", Seed: 1, Instructions: 20_000, Users: 2})
	for _, c := range []struct {
		name  string
		start func(g *Generator)
		want  string
	}{
		{"process 1", func(g *Generator) { g.procs[0].cur = procSlotBase + procDataOffset - 8 }, "process 1 code"},
		{"process 2", func(g *Generator) {
			g.procs[1].cur = procSlotBase + procSlotSize + procDataOffset - 8
		}, "process 2 code"},
		{"kernel", func(g *Generator) { g.sysCur = sysDataBase - 8 }, "kernel code"},
	} {
		g := newGenerator(p)
		c.start(g)
		tr, err := g.run()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Generate = (%v, %v), want an error naming %q", c.name, tr != nil, err, c.want)
		}
	}
	if _, err := newGenerator(p).run(); err != nil {
		t.Fatalf("the same profile from the usual cursors: %v", err)
	}
}
