package faults

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Case identifies one audited run. A bare case (only Strategy, Workload
// and Seed set) replays under the ambient Options.Plan — the sweep
// convention. A case whose plan fields are set is self-contained: the
// embedded plan and oracle configuration rebuild the exact run, so the
// printed form is a complete, replayable counterexample. The auditor
// and the adversarial campaign enrich every reported violation's Case
// this way, and Case.String / ParseCase round-trip the result through
// `ehsim -audit -repro`.
type Case struct {
	Strategy string
	Workload string

	// Plan is the case's fault plan; its Seed is the injector seed of
	// this schedule. With every other field zero the plan counts as not
	// embedded, and replay runs the ambient plan reseeded with Seed.
	Plan

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
	return len(c.CutCycles) > 0 || c.RandomCutMeanCycles > 0 || c.TornWriteProb > 0 ||
		c.BitFlipRate > 0 || c.StaleRestoreProb > 0 || c.NaiveCommit
}

// withPlan returns a copy of c carrying p as its embedded plan, with
// its own sorted copy of the cuts, making the case self-contained.
func (c Case) withPlan(p Plan) Case {
	c.Plan = p
	c.CutCycles = slices.Sorted(slices.Values(p.CutCycles))
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
	if len(c.CutCycles) > 0 {
		b.WriteString(" cuts=")
		for i, v := range c.CutCycles {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatUint(v, 10))
		}
	}
	if c.RandomCutMeanCycles > 0 {
		fmt.Fprintf(&b, " mean=%g", c.RandomCutMeanCycles)
	}
	if c.TornWriteProb > 0 {
		fmt.Fprintf(&b, " torn=%g", c.TornWriteProb)
	}
	if c.BitFlipRate > 0 {
		fmt.Fprintf(&b, " flips=%g", c.BitFlipRate)
	}
	if c.StaleRestoreProb > 0 {
		fmt.Fprintf(&b, " stale=%g", c.StaleRestoreProb)
	}
	if c.NaiveCommit {
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
			c.NaiveCommit = true
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
				c.CutCycles = append(c.CutCycles, v)
			}
		case "mean", "torn", "flips", "stale", "period":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return c, fmt.Errorf("faults: case %s=%q: want a finite number ≥ 0", key, val)
			}
			switch key {
			case "mean":
				c.RandomCutMeanCycles = v
			case "torn":
				c.TornWriteProb = v
			case "flips":
				c.BitFlipRate = v
			case "stale":
				c.StaleRestoreProb = v
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
