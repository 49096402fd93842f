package device

import (
	"fmt"
	"math"
	"reflect"
	"sort"

	"ehmodel/internal/obsv"
)

// Fixed-point fast-forward.
//
// On a bench supply (nil Harvester) with no fault injector, an active
// period is a deterministic function of the persistent state it boots
// from: FRAM, the checkpoint area, the device's nonvolatile mirrors
// (committedOut, activeSlot, hasCkpt, everCommitted, maxSeq, framWrites)
// and whatever strategy state survives Reset and Boot — none, for a
// Memoryless strategy. Everything else is rebuilt at boot. A period that
// ends without halting, commits no backup and stores nothing to FRAM
// changes none of that state: a failed fault-free backup dies before it
// writes a slot word, and the output-log words it may have written past
// the committed OutLen are never read. So the next period repeats it bit
// for bit, and so does every later one — the EH model's single repeating
// active period (Eqs. 1–8), exactly.
//
// With Config.DetectLivelock the fixed-point test runs after every
// period on both engines, for any strategy, and a qualifying period
// followed by a repeat that dies at the same PC is a livelock. Otherwise,
// for a Memoryless strategy, the batched engine with no cache model and
// no recorder attached records the repeat through the per-step loop —
// where consume is the only place simulated time and cycles advance —
// and replays the recording up to the run limits: every timeS increment
// in order, the interrupt-poll credits and the observer events at their
// positions among those increments, and a copy of the period's stats.
// Memoryless matters only to the replay, whose skipped hook calls a
// strategy that keeps run-wide counts would miss. The reference engine
// never replays, so the equivalence oracle fences every replayed bit.

// fixedPoint is the per-run fast-forward state.
type fixedPoint struct {
	// eligible: the test runs, because the run diagnoses fixed points or
	// replays them. replay: the run replays them.
	eligible, replay bool
	// framAt, cyclesAt and timeAt are framWrites, the consumed cycles and
	// the simulated time at the current period's start.
	framAt, cyclesAt uint64
	timeAt           float64
	// armed: the previous period qualified, and want and wantPC hold its
	// stats and death PC; the current period must repeat them. tape is
	// the confirmed recording, ready to replay.
	armed  bool
	want   PeriodStats
	wantPC uint32
	tape   *periodTape
}

// periodTape is one recorded active period of a fixed point.
type periodTape struct {
	// dts holds the period's simulated-time increments in order: the dt
	// of every timeS += dt, as consume computed it.
	dts []float64
	// marks are the interrupt-poll credits and observer events in the
	// order they happened; events holds the events, in order, each with
	// the index of its mark.
	marks  []tapeMark
	events []tapeEvent
	// stats is the recorded period's statistics; cycles, credit and
	// added are its consumed cycles, total interrupt-poll credit, and
	// the cycles its increments accounted for.
	stats                 PeriodStats
	cycles, credit, added uint64
}

// tapeMark positions a credit or event within a period: after `at`
// increments, `cyc` cycles into the period, with `cum` credited so far
// in the period, this mark's own credit included. A period is recorded
// only when its cycles, and so its credits, fit in 32 bits.
type tapeMark struct {
	at, cyc, cum uint32
}

// tapeEvent is a recorded event and the index of its mark.
type tapeEvent struct {
	mark int
	e    obsv.Event
}

// add records one consume step.
func (t *periodTape) add(dt float64, n uint64) {
	t.dts = append(t.dts, dt)
	t.added += n
}

func (t *periodTape) addCredit(n uint64) {
	if n > 0 {
		t.credit += n
		t.marks = append(t.marks, t.mark())
	}
}

func (t *periodTape) event(e obsv.Event) {
	t.events = append(t.events, tapeEvent{mark: len(t.marks), e: e})
	t.marks = append(t.marks, t.mark())
}

func (t *periodTape) mark() tapeMark {
	return tapeMark{at: uint32(len(t.dts)), cyc: uint32(t.added), cum: uint32(t.credit)}
}

// resetFixedPoint decides at the start of a run whether it diagnoses or
// replays fixed points. Strategy parameters may change between New and
// Run, so the Memoryless claim is read here.
func (d *Device) resetFixedPoint() {
	d.ff = fixedPoint{}
	d.tape = nil
	if d.cfg.Harvester != nil || d.inj != nil {
		return
	}
	m, ok := d.strat.(Memoryless)
	d.ff.replay = ok && m.Memoryless() && !d.cfg.DetectLivelock &&
		d.cfg.Engine != EngineReference && d.cache == nil && d.rec == nil
	d.ff.eligible = d.cfg.DetectLivelock || d.ff.replay
}

// watchPeriod runs at the top of every period, before its interrupt
// credit, and notes where the period starts.
func (d *Device) watchPeriod() {
	d.ff.framAt, d.ff.cyclesAt, d.ff.timeAt = d.framWrites, d.cycles, d.timeS
}

// fixedPointTest runs after every period. A period qualifies when it
// ended without halting, committed nothing and stored nothing to FRAM.
// A qualifying period whose successor repeats its stats and death PC is
// a fixed point: a livelock under DetectLivelock, otherwise — when the
// successor was recorded — a tape fastForward replays. A recorded
// successor that does not repeat means a Memoryless claim or an engine
// invariant is broken, which is an internal error, never a silent
// fallback; without a recording the mismatch just restarts the test.
func (d *Device) fixedPointTest() error {
	ff := &d.ff
	if !ff.eligible {
		return nil
	}
	tape := d.tape
	d.tape = nil
	p := &d.result.Periods[len(d.result.Periods)-1]
	qualifies := !d.halted && p.Backups == 0 && d.framWrites == ff.framAt
	if ff.armed {
		ff.armed = false
		// With no committed backup the per-backup slices of both periods
		// are nil, so the comparison is over the counters and energies.
		repeated := qualifies && d.deathPC == ff.wantPC && reflect.DeepEqual(*p, ff.want)
		switch {
		case repeated && d.cfg.DetectLivelock:
			return &NoProgressError{
				Periods:     len(d.result.Periods),
				PC:          d.deathPC,
				SinceCommit: d.deathSince,
				RegionEntry: d.bootPC,
				Livelock:    true,
			}
		case tape != nil && !repeated:
			return fmt.Errorf("device: internal: recorded period %d did not repeat the zero-commit period before it",
				len(d.result.Periods)-1)
		case tape != nil:
			return d.confirmTape(tape, p)
		}
	}
	if qualifies {
		ff.armed = true
		ff.want, ff.wantPC = *p, d.deathPC
		// Record the repeat only when a replay can follow it: room for the
		// recorded period and at least one more within both run limits.
		// Nothing happens between here and the next period's start, so
		// the recording starts now. The repeat takes at most as many
		// increments as cycles; the tape is sized for that, up to a bound.
		per := d.cycles - ff.cyclesAt
		if ff.replay && len(d.result.Periods)+2 <= d.cfg.MaxPeriods &&
			d.cycles < d.cfg.MaxCycles && per <= (d.cfg.MaxCycles-d.cycles)/2 &&
			per < math.MaxUint32/2 {
			n := min(per, 1<<16)
			d.tape = &periodTape{
				dts:   make([]float64, 0, n),
				marks: make([]tapeMark, 0, n+8),
			}
		}
	}
	return nil
}

// confirmTape checks that the recorded increments account for all of
// the period's consumed cycles and, added in order from its start time,
// reproduce its end time bit for bit — consume must have been the only
// place either advanced — and arms fastForward with the tape.
func (d *Device) confirmTape(t *periodTape, p *PeriodStats) error {
	t.stats = *p
	t.cycles = d.cycles - d.ff.cyclesAt
	timeS := d.ff.timeAt
	for _, dt := range t.dts {
		timeS += dt
	}
	if t.added != t.cycles || t.cycles == 0 || timeS != d.timeS {
		return fmt.Errorf("device: internal: recorded period %d advanced time outside its %d increments",
			len(d.result.Periods)-1, len(t.dts))
	}
	d.ff.tape = t
	return nil
}

// fastForward replays the confirmed tape for as many periods as end at
// or before both run limits; Run then simulates whatever remains (a
// final period cut short by MaxCycles) normally. Each replayed period
// re-adds the recorded time increments in order, re-credits the
// interrupt poll and re-emits the recorded events — stamped with the
// replayed position, exactly as simulation would stamp them — at their
// recorded positions among the increments, then appends the period's
// stats. An interrupt or deadline firing mid-replay aborts the run
// exactly where it would have fired in simulation. One EvFastForward
// follows, counting the periods replayed whole.
func (d *Device) fastForward() error {
	t := d.ff.tape
	d.ff.tape = nil
	k := uint64(d.cfg.MaxPeriods - len(d.result.Periods))
	if room := (d.cfg.MaxCycles - d.cycles) / t.cycles; room < k {
		k = room
	}
	var n uint64
	var err error
	for ; n < k; n++ {
		if err = d.replayPeriod(t); err != nil {
			break
		}
		d.result.Periods = append(d.result.Periods, t.stats)
	}
	if d.obs != nil && n > 0 {
		d.emit(obsv.EvFastForward, n, t.cycles, 0)
	}
	return err
}

// replayPeriod replays one recorded period from the current position:
// its events in order, and its credits, which it finds by their running
// total. A credit that reaches pollBatchCycles runs the real interrupt
// check at its simulated position, after exactly the events that
// preceded it. Simulated time is the recorded increments added one by
// one in order, as consume added them.
func (d *Device) replayPeriod(t *periodTape) error {
	start := d.cycles
	i, timeS := 0, d.timeS
	// timeAt advances the running time through the first n increments;
	// marks are visited in order, so n never decreases.
	timeAt := func(n int) float64 {
		for ; i < n; i++ {
			timeS += t.dts[i]
		}
		return timeS
	}
	ev, base := 0, uint64(0) // next event; credit already applied
	emitBefore := func(mark int) {
		for ; ev < len(t.events) && t.events[ev].mark < mark; ev++ {
			m := t.marks[t.events[ev].mark]
			d.replayEvent(t.events[ev].e, start+uint64(m.cyc), timeAt(int(m.at)))
		}
	}
	for d.sincePoll+t.credit-base >= pollBatchCycles {
		// pollInterrupt's credit, minus the recording: the first mark
		// whose running total reaches the check is a credit mark.
		need := pollBatchCycles - d.sincePoll + base
		j := sort.Search(len(t.marks), func(k int) bool { return uint64(t.marks[k].cum) >= need })
		emitBefore(j)
		m := t.marks[j]
		d.sincePoll += uint64(m.cum) - base
		base = uint64(m.cum)
		d.cycles, d.timeS = start+uint64(m.cyc), timeAt(int(m.at))
		if err := d.pollCheck(); err != nil {
			return err
		}
	}
	emitBefore(len(t.marks))
	d.sincePoll += t.credit - base
	d.cycles, d.timeS = start+t.cycles, timeAt(len(t.dts))
	return nil
}

// replayEvent re-emits a recorded event at a replayed position.
func (d *Device) replayEvent(e obsv.Event, cycles uint64, timeS float64) {
	e.Period = int32(len(d.result.Periods))
	e.Cycles, e.TimeS = cycles, timeS
	d.obs.Event(e)
}
