package workload

import (
	"context"
	"fmt"
	"sync"

	"ehmodel/internal/asm"
)

// A program table holds the programs one figure pass has assembled, one
// per (workload, options) pair. Many cells of a pass run the same
// program — every Fig. 6 runtime runs each Table II benchmark, every
// point of a sweep its one workload — and a warm pass, whose cells all
// come from the result store, would otherwise spend much of its time
// assembling programs only to hash them into cell keys.
type programTable struct {
	mu    sync.Mutex
	progs map[programKey]*tableEntry
}

type programKey struct {
	name string
	opts Options // Scale normalized, so 0 and 1 share an entry
}

type tableEntry struct {
	once sync.Once
	prog *asm.Program
	err  error
}

type tableCtxKey struct{}

// WithPrograms returns ctx carrying a fresh program table, under which
// Program assembles each (workload, options) pair once. A figure pass
// installs one, so its programs live as long as the pass.
func WithPrograms(ctx context.Context) context.Context {
	return context.WithValue(ctx, tableCtxKey{}, &programTable{progs: map[programKey]*tableEntry{}})
}

// Program returns the named workload's program for opts. Under a
// context carrying a program table (WithPrograms) the first caller of a
// pair assembles it and every caller gets that one *asm.Program, so,
// like a trace.Trace, a program must never be modified after assembly:
// cells running in parallel read one instance. Without a table each call
// assembles a fresh program.
func Program(ctx context.Context, name string, opts Options) (*asm.Program, error) {
	w, ok := Get(name)
	if !ok {
		return nil, fmt.Errorf("workload: unknown workload %q", name)
	}
	t, _ := ctx.Value(tableCtxKey{}).(*programTable)
	if t == nil {
		return w.Build(opts)
	}
	k := programKey{name, Options{Seg: opts.Seg, Scale: opts.scale()}}
	t.mu.Lock()
	e := t.progs[k]
	if e == nil {
		e = &tableEntry{}
		t.progs[k] = e
	}
	t.mu.Unlock()
	e.once.Do(func() { e.prog, e.err = w.Build(opts) })
	return e.prog, e.err
}
