package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Case identifies one audited run. A bare case (only Strategy, Workload
// and Seed set) replays under the ambient Options.Plan — the sweep
// convention. A case whose plan fields are set is self-contained: the
// embedded fields rebuild the exact fault plan and oracle configuration,
// so the printed form is a complete, replayable counterexample. The
// auditor and the adversarial campaign enrich every reported violation's
// Case this way, and Case.String / ParseCase round-trip the result
// through `ehsim -audit -repro`.
type Case struct {
	Strategy string
	Workload string
	// Seed is the injector seed of this schedule; together with the plan
	// fields it fully reproduces the run.
	Seed int64

	// Embedded fault plan (see Plan). All-zero means "not embedded":
	// replay falls back to the ambient plan.
	Cuts    []uint64 // deterministic power-cut cycles
	MeanCut float64  // random-cut mean interval, cycles
	Torn    float64  // per-word torn-write probability
	Flips   float64  // per-word bit-flip rate
	Stale   float64  // forced stale-restore probability
	Naive   bool     // single-slot unvalidated commit mode

	// Oracle configuration carried for replay: whether to attach the
	// observation recorder, and the timeliness bound in executed cycles
	// (0 = unbounded).
	Oracle bool
	Fresh  uint64

	// Run shape overrides; zero picks the audit's default shape
	// (20000-cycle periods, at most 20000 of them).
	Period  float64 // per-period energy budget, ALU cycles
	Periods int     // max power-on periods
}

// hasPlan reports whether the case embeds a fault plan of its own.
func (c Case) hasPlan() bool {
	return len(c.Cuts) > 0 || c.MeanCut > 0 || c.Torn > 0 || c.Flips > 0 ||
		c.Stale > 0 || c.Naive
}

// plan rebuilds the embedded fault plan.
func (c Case) plan() Plan {
	return Plan{
		Seed:                c.Seed,
		CutCycles:           append([]uint64(nil), c.Cuts...),
		RandomCutMeanCycles: c.MeanCut,
		TornWriteProb:       c.Torn,
		BitFlipRate:         c.Flips,
		StaleRestoreProb:    c.Stale,
		NaiveCommit:         c.Naive,
	}
}

// withPlan returns a copy of c carrying p as its embedded plan, making
// the case self-contained.
func (c Case) withPlan(p Plan) Case {
	c.Cuts = append([]uint64(nil), p.CutCycles...)
	sort.Slice(c.Cuts, func(a, b int) bool { return c.Cuts[a] < c.Cuts[b] })
	c.MeanCut = p.RandomCutMeanCycles
	c.Torn = p.TornWriteProb
	c.Flips = p.BitFlipRate
	c.Stale = p.StaleRestoreProb
	c.Naive = p.NaiveCommit
	return c
}

// String prints the case in the replayable token form ParseCase reads:
//
//	strategy/workload seed=N [cuts=a,b] [mean=M] [torn=P] [flips=P]
//	                  [stale=P] [naive] [oracle] [fresh=N] [period=P]
//	                  [periods=N]
//
// Zero-valued optional fields are omitted, so a bare sweep case keeps
// the familiar "strat/wl seed=N" shape.
func (c Case) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s seed=%d", c.Strategy, c.Workload, c.Seed)
	if len(c.Cuts) > 0 {
		b.WriteString(" cuts=")
		for i, v := range c.Cuts {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatUint(v, 10))
		}
	}
	if c.MeanCut > 0 {
		fmt.Fprintf(&b, " mean=%g", c.MeanCut)
	}
	if c.Torn > 0 {
		fmt.Fprintf(&b, " torn=%g", c.Torn)
	}
	if c.Flips > 0 {
		fmt.Fprintf(&b, " flips=%g", c.Flips)
	}
	if c.Stale > 0 {
		fmt.Fprintf(&b, " stale=%g", c.Stale)
	}
	if c.Naive {
		b.WriteString(" naive")
	}
	if c.Oracle {
		b.WriteString(" oracle")
	}
	if c.Fresh > 0 {
		fmt.Fprintf(&b, " fresh=%d", c.Fresh)
	}
	if c.Period > 0 {
		fmt.Fprintf(&b, " period=%g", c.Period)
	}
	if c.Periods > 0 {
		fmt.Fprintf(&b, " periods=%d", c.Periods)
	}
	return b.String()
}

// ParseCase parses the Case.String token form back into a Case, so a
// violation printed by the auditor or campaign can be replayed verbatim
// (`ehsim -audit -repro "<case>"`). It is the inverse of String:
// ParseCase(c.String()) reproduces c up to zero-valued optional fields.
func ParseCase(s string) (Case, error) {
	var c Case
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return c, fmt.Errorf("faults: empty case")
	}
	strat, wl, ok := strings.Cut(fields[0], "/")
	if !ok || strat == "" || wl == "" {
		return c, fmt.Errorf("faults: case %q must start with strategy/workload", fields[0])
	}
	c.Strategy, c.Workload = strat, wl
	for _, tok := range fields[1:] {
		key, val, hasVal := strings.Cut(tok, "=")
		switch key {
		case "naive":
			if hasVal {
				return c, fmt.Errorf("faults: case token %q takes no value", tok)
			}
			c.Naive = true
		case "oracle":
			if hasVal {
				return c, fmt.Errorf("faults: case token %q takes no value", tok)
			}
			c.Oracle = true
		case "seed":
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return c, fmt.Errorf("faults: case seed %q: %w", val, err)
			}
			c.Seed = v
		case "cuts":
			for _, f := range strings.Split(val, ",") {
				v, err := strconv.ParseUint(f, 10, 64)
				if err != nil {
					return c, fmt.Errorf("faults: case cut %q: %w", f, err)
				}
				c.Cuts = append(c.Cuts, v)
			}
		case "mean", "torn", "flips", "stale", "period":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return c, fmt.Errorf("faults: case %s=%q: want a finite number ≥ 0", key, val)
			}
			switch key {
			case "mean":
				c.MeanCut = v
			case "torn":
				c.Torn = v
			case "flips":
				c.Flips = v
			case "stale":
				c.Stale = v
			case "period":
				c.Period = v
			}
		case "fresh":
			v, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return c, fmt.Errorf("faults: case fresh %q: %w", val, err)
			}
			c.Fresh = v
		case "periods":
			v, err := strconv.Atoi(val)
			if err != nil || v < 0 {
				return c, fmt.Errorf("faults: case periods %q: want an integer ≥ 0", val)
			}
			c.Periods = v
		default:
			return c, fmt.Errorf("faults: unknown case token %q", tok)
		}
	}
	return c, nil
}
