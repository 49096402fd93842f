package sweep

import (
	"context"
	"sync"
)

// Cell provenance: the record tying one served result to exactly how it
// was obtained — computed here, recalled from the store, coalesced onto
// an in-flight twin, or run uncached. A request that asks
// `?provenance=1` gets these back; the compute-cost half is also
// persisted inside the CAS entry so a cache hit can report what the
// original simulation cost, wherever and whenever it ran.

// CellProv is the provenance of one resolved cell within one request.
type CellProv struct {
	// Label is the cell's sweep label; Key its content hash in hex
	// (empty for bypassed cells).
	Label string `json:"label"`
	Key   string `json:"key,omitempty"`
	// Outcome is how the cell was answered: "hit", "miss", "dedup" or
	// "bypass" — the same classes as the executor's Stats counters.
	Outcome string `json:"outcome"`
	// Worker is the runner worker slot that resolved the cell (-1 when
	// run outside a worker pool).
	Worker int `json:"worker"`
	// WallUS is the wall-clock cost of resolving the cell in *this*
	// request — microseconds of simulation for a miss, of store lookup
	// for a hit, of waiting on the leader for a dedup.
	WallUS int64 `json:"wall_us"`
	// SimCycles and Periods summarize the simulation result; Completed
	// reports whether the program halted.
	SimCycles uint64 `json:"simcycles"`
	Periods   int    `json:"periods"`
	Completed bool   `json:"completed"`
	// ComputeUS is the producing simulation's wall-clock cost: equal to
	// WallUS for a miss or bypass, recovered from the CAS entry for a
	// hit (0 when the entry carries no provenance).
	ComputeUS int64 `json:"compute_us"`
}

// Computed reports whether this cell ran a simulation in this request.
func (p *CellProv) Computed() bool { return p.Outcome == "miss" || p.Outcome == "bypass" }

// StoredProv is the compute-cost stub persisted inside each CAS entry:
// enough to answer "what did this result originally cost" on a hit.
type StoredProv struct {
	Label     string
	ComputeUS int64
	// CreatedUnixMS stamps when the producing simulation ran.
	CreatedUnixMS int64
}

// ProvLog collects the provenance records of one request. Attach it to
// the context with WithProvLog before running cells; the executor
// appends one record per resolved cell. Safe for concurrent use (sweep
// workers share one log). The zero-cost contract matches tracing: with
// no log in the context the executor performs a context lookup and
// nothing else.
type ProvLog struct {
	// OnCell, when set before the sweep starts, is invoked (outside the
	// log's lock) for every record as it lands — the live cell feed the
	// service's /v1/events stream publishes.
	OnCell func(CellProv)

	mu      sync.Mutex
	cells   []CellProv
	limit   int
	dropped uint64
}

// DefaultProvLimit bounds the records one request retains.
const DefaultProvLimit = 4096

// NewProvLog builds a log retaining at most limit records (≤ 0 selects
// DefaultProvLimit).
func NewProvLog(limit int) *ProvLog {
	if limit <= 0 {
		limit = DefaultProvLimit
	}
	return &ProvLog{limit: limit}
}

func (l *ProvLog) add(p CellProv) {
	l.mu.Lock()
	if len(l.cells) >= l.limit {
		l.dropped++
	} else {
		l.cells = append(l.cells, p)
	}
	l.mu.Unlock()
	if l.OnCell != nil {
		l.OnCell(p)
	}
}

// Cells returns the collected records in arrival order.
func (l *ProvLog) Cells() []CellProv {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]CellProv, len(l.cells))
	copy(out, l.cells)
	return out
}

// Dropped returns how many records the limit discarded.
func (l *ProvLog) Dropped() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// ComputedCells counts records that ran a simulation in this request.
func (l *ProvLog) ComputedCells() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for i := range l.cells {
		if l.cells[i].Computed() {
			n++
		}
	}
	return n
}

type provKey struct{}

// WithProvLog attaches l as the context's provenance collector. A nil l
// returns ctx unchanged.
func WithProvLog(ctx context.Context, l *ProvLog) context.Context {
	if l == nil {
		return ctx
	}
	return context.WithValue(ctx, provKey{}, l)
}

// ProvFrom returns the context's provenance collector, or nil.
func ProvFrom(ctx context.Context) *ProvLog {
	l, _ := ctx.Value(provKey{}).(*ProvLog)
	return l
}
