package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// The traced ledger (-trace 1) attributes time to each layer. It runs
// the same code as the end-to-end workloads in shortened form, with an
// in-memory trace in the context (so the program's existing generate,
// cell, device.run and singleflight.wait spans are recorded), the
// benchmark's own spans around its calls, a provenance log and the
// store decorator attached, plus direct probes of single layers. Its
// metric set does not depend on the workload named on the command line.

const (
	ledgerFigPasses  = 3 // traced and untraced figure passes each
	ledgerServeSpell = 5 * time.Second
	ledgerTraceFrac  = 0.01
)

// ledgerMetrics lists every per-layer metric.
func ledgerMetrics() []metricDef {
	d := func(name, unit, better string) metricDef { return metricDef{Name: name, Unit: unit, Better: better} }
	ms := []metricDef{
		d("cpu.step_into.ns_per_cycle", "ns", "lower"),
		d("cpu.stepn.ns_per_cycle", "ns", "lower"),
		d("cpu.stepn.allocs", "count", "lower"),
		d("device.new.us", "us", "lower"),
		d("device.new.allocs", "count", "lower"),
	}
	for _, c := range simClasses {
		ms = append(ms,
			d("device.run."+c+".ms_p50", "ms", "lower"),
			d("device.run."+c+".allocs", "count", "lower"),
			d("device.sim."+c+".cycles", "count", "lower"),
			d("device.sim."+c+".periods", "count", "lower"),
			d("device.sim."+c+".backups", "count", "lower"),
			d("device.alloc_mb_per_pass."+c, "MB", "lower"),
		)
	}
	ms = append(ms,
		d("process.peak_rss_mb.sim", "MB", "lower"),
		d("sweep.cellkey.bench.us", "us", "lower"),
		d("sweep.cellkey.harvest.us", "us", "lower"),
		d("sweep.store.get.count", "count", "lower"),
		d("sweep.store.get.disk_us_p50", "us", "lower"),
		d("sweep.store.get.mem_us_p50", "us", "lower"),
		d("sweep.store.get.us_p99", "us", "lower"),
		d("sweep.store.put.count", "count", "lower"),
		d("sweep.store.put.us_p50", "us", "lower"),
		d("sweep.store.entry.kb_mean", "kB", "lower"),
		d("sweep.cell.hit.us_p50", "us", "lower"),
		d("sweep.cell.miss.self_us_p50", "us", "lower"),
		d("sweep.exec.cold.hits", "count", "higher"),
		d("sweep.exec.cold.misses", "count", "lower"),
		d("sweep.exec.cold.hit_ratio", "frac", "higher"),
		d("sweep.exec.warm.hits", "count", "higher"),
		d("sweep.exec.warm.hit_ratio", "frac", "higher"),
		d("runner.busy_frac", "frac", "higher"),
		d("runner.critical_cell_ms", "ms", "lower"),
		d("runner.tail_idle_ms", "ms", "lower"),
	)
	for _, id := range figureIDs() {
		ms = append(ms,
			d("experiments.fig."+id+".cold_ms", "ms", "lower"),
			d("experiments.fig."+id+".warm_ms", "ms", "lower"))
	}
	ms = append(ms,
		d("experiments.generate.self_ms", "ms", "lower"),
		d("experiments.csv.ms", "ms", "lower"),
		d("experiments.alloc_mb_per_pass.cold", "MB", "lower"),
		d("experiments.alloc_mb_per_pass.warm", "MB", "lower"),
		d("go.gc_per_pass.cold", "count", "lower"),
		d("process.peak_rss_mb.figs", "MB", "lower"),
		d("core.progress.ns", "ns", "lower"),
		d("core.sweep_taub_n500.us", "us", "lower"),
	)
	for _, k := range requestKinds {
		ms = append(ms, d("ehserve."+k.kind+".p50_ms", "ms", "lower"))
	}
	ms = append(ms,
		d("ehserve.server.p50_us", "us", "lower"),
		d("ehserve.span.cache_lookup.us_p50", "us", "lower"),
		d("ehserve.span.render.us_p50", "us", "lower"),
		d("ehserve.resp.kb_mean", "kB", "lower"),
	)
	for _, rate := range []string{"light", "heavy"} {
		ms = append(ms,
			d("ehserve."+rate+".p90_ms", "ms", "lower"),
			d("ehserve."+rate+".p99_ms", "ms", "lower"),
			d("ehserve."+rate+".max_ms", "ms", "lower"),
			d("loadgen."+rate+".late_p99_ms", "ms", "lower"),
		)
	}
	return append(ms,
		d("process.peak_rss_mb.ehserve", "MB", "lower"),
		d("obsv.trace_overhead_frac.figs-cold", "frac", "lower"),
		d("obsv.trace_overhead_frac.figs-warm", "frac", "lower"),
		d("obsv.spans_per_pass", "count", "lower"),
	)
}

func runLedger(ctx context.Context, e *env, r *result) error {
	for _, section := range []func(context.Context, *env, *result) error{
		ledgerProbes, ledgerFigsCold, ledgerFigures, ledgerFigsWarm, ledgerSim, ledgerServe,
	} {
		if err := section(ctx, e, r); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// ledgerProbes calls single layers directly.
func ledgerProbes(_ context.Context, _ *env, r *result) error {
	si, sn, allocs, err := cpuProbe()
	if err != nil {
		return err
	}
	r.set("cpu.step_into.ns_per_cycle", "ns", si, 5)
	r.set("cpu.stepn.ns_per_cycle", "ns", sn, 5)
	r.set("cpu.stepn.allocs", "count", allocs, 200)
	r.attempt(r.check("cpu.stepn.zero_allocs", allocs == 0, "%v allocations per call", allocs))
	kb, kh, err := cellKeyProbe()
	if err != nil {
		return err
	}
	r.set("sweep.cellkey.bench.us", "us", kb, 5)
	r.set("sweep.cellkey.harvest.us", "us", kh, 5)
	pn, su := coreProbe()
	r.set("core.progress.ns", "ns", pn, 5)
	r.set("core.sweep_taub_n500.us", "us", su, 5)
	return nil
}

// memSnap reads the allocator's cumulative counters.
func memSnap() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// tracedCtx attaches a fresh trace and provenance log.
func tracedCtx(ctx context.Context) (context.Context, *tracer, *provLog) {
	tr, pl := newTracer(), newProvLog()
	return pl.attach(tr.attach(ctx)), tr, pl
}

// spansNamed returns the spans called name.
func spansNamed(sp []span, name string) []span {
	var out []span
	for _, s := range sp {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// writeSpans saves a trace's span tree under -out, if set.
func writeSpans(e *env, name string, tr *tracer) error {
	if e.out == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(e.out, "spans-"+name+".json"))
	if err != nil {
		return err
	}
	if err := tr.writeTree(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ledgerFigsCold runs untraced and traced cold passes: allocation, GC,
// store writes, cell self time, worker occupancy and trace overhead.
func ledgerFigsCold(ctx context.Context, e *env, r *result) error {
	if err := resetPeakRSS(); err != nil {
		return err
	}
	var plain []float64
	m0 := memSnap()
	for i := 0; i < ledgerFigPasses; i++ {
		d, _, _, err := coldPass(ctx, e, r, false)
		if err != nil {
			return err
		}
		plain = append(plain, ms(d))
	}
	m1 := memSnap()
	n := float64(ledgerFigPasses)
	r.set("experiments.alloc_mb_per_pass.cold", "MB", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/n, ledgerFigPasses)
	r.set("go.gc_per_pass.cold", "count", float64(m1.NumGC-m0.NumGC)/n, ledgerFigPasses)

	var traced, puts, putUS, entryKB, hits, misses, ratio, spanCount []float64
	var missSelf, busy, critical, tailIdle []float64
	var last *tracer
	for i := 0; i < ledgerFigPasses; i++ {
		tctx, tr, pl := tracedCtx(ctx)
		pctx, end := startSpan(tctx, "pass")
		d, fe, _, err := coldPass(pctx, e, r, true)
		end()
		if err != nil {
			return err
		}
		traced = append(traced, ms(d))
		last = tr
		sp := tr.spans()
		spanCount = append(spanCount, float64(len(sp)))
		put := fe.ops.putUS.part(0, -1)
		puts = append(puts, float64(len(put)))
		putUS = append(putUS, put...)
		entryKB = append(entryKB, mean(fe.ops.putBytes.part(0, -1))/1e3)
		st := fe.stats()
		hits = append(hits, float64(st.Hits))
		misses = append(misses, float64(st.Misses))
		ratio = append(ratio, float64(st.Hits+st.Dedup)/float64(st.total()))

		self := selfTimes(sp)
		var cells []interval
		for _, c := range spansNamed(sp, "cell") {
			cells = append(cells, interval{c.Start, c.End})
			if c.Attrs["outcome"] == "miss" {
				missSelf = append(missSelf, float64(self[c.ID])/1e3)
			}
		}
		gen := spansNamed(sp, "generate")
		if len(gen) != 1 || len(cells) == 0 {
			return fmt.Errorf("traced cold pass: %d generate spans, %d cell spans", len(gen), len(cells))
		}
		g := gen[0]
		var wallUS float64
		for _, c := range pl.cells() {
			wallUS += float64(c.WallUS)
			r.check("runner.worker_slot_in_range", c.Worker >= 0 && c.Worker < workers(), "worker %d", c.Worker)
		}
		busy = append(busy, wallUS*1e3/(float64(workers())*float64(g.End-g.Start)))
		var longest int64
		for _, c := range cells {
			longest = max(longest, c.End-c.Start)
		}
		critical = append(critical, float64(longest)/1e6)
		tailIdle = append(tailIdle, float64(underfilled(cells, workers(), g.Start, g.End))/1e6)
	}
	putSorted := sorted(putUS)
	r.set("sweep.store.put.count", "count", median(puts), len(puts))
	r.set("sweep.store.put.us_p50", "us", median(putSorted), len(putSorted))
	r.set("sweep.store.entry.kb_mean", "kB", median(entryKB), len(entryKB))
	r.set("sweep.exec.cold.hits", "count", median(hits), len(hits))
	r.set("sweep.exec.cold.misses", "count", median(misses), len(misses))
	r.set("sweep.exec.cold.hit_ratio", "frac", median(ratio), len(ratio))
	r.set("sweep.cell.miss.self_us_p50", "us", median(missSelf), len(missSelf))
	r.set("runner.busy_frac", "frac", median(busy), len(busy))
	r.set("runner.critical_cell_ms", "ms", median(critical), len(critical))
	r.set("runner.tail_idle_ms", "ms", median(tailIdle), len(tailIdle))
	r.set("obsv.spans_per_pass", "count", median(spanCount), len(spanCount))
	r.set("obsv.trace_overhead_frac.figs-cold", "frac", median(traced)/median(plain)-1, len(traced))
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	r.set("process.peak_rss_mb.figs", "MB", rss, 1)
	return writeSpans(e, "figs-cold", last)
}

// ledgerFigures times one GenerateFigures(id) call per catalog ID on a
// fresh executor (cold), then the same call again (warm).
func ledgerFigures(ctx context.Context, e *env, r *result) error {
	for _, id := range figureIDs() {
		if _, err := newFigExec("", false); err != nil {
			return err
		}
		var durs [2]float64
		for i := range durs {
			t := time.Now()
			p := runFigures(ctx, id)
			durs[i] = ms(time.Since(t))
			ok := r.check("figures.no_failures", len(p.failures) == 0, "%s", strings.Join(p.failures, "; "))
			d := figuresDiff(e.golden, id, p.csv)
			r.attempt(r.check("experiments.fig.golden", d == "", "id=%s: %s", id, d) && ok)
		}
		r.set("experiments.fig."+id+".cold_ms", "ms", durs[0], 1)
		r.set("experiments.fig."+id+".warm_ms", "ms", durs[1], 1)
	}
	return nil
}

// ledgerFigsWarm fills a disk CAS, then runs untraced and traced warm
// iterations: store gets per tier, hit cost, generation self time and
// CSV rendering.
func ledgerFigsWarm(ctx context.Context, e *env, r *result) error {
	dir := filepath.Join(e.tmp, "ledger-cas")
	if err := fillStore(ctx, e, r, dir); err != nil {
		return err
	}
	var plain []float64
	m0 := memSnap()
	for i := 0; i < ledgerFigPasses; i++ {
		w, err := warmIteration(ctx, e, r, dir, false)
		if err != nil {
			return err
		}
		plain = append(plain, ms(w.disk+w.mem))
	}
	m1 := memSnap()
	r.set("experiments.alloc_mb_per_pass.warm", "MB", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/(2*ledgerFigPasses), 2*ledgerFigPasses)

	var traced, gets, diskUS, memUS, allUS, hitUS, genSelf, csvMS, hits, ratio []float64
	var last *tracer
	for i := 0; i < ledgerFigPasses; i++ {
		tctx, tr, _ := tracedCtx(ctx)
		pctx, end := startSpan(tctx, "pass")
		w, err := warmIteration(pctx, e, r, dir, true)
		end()
		if err != nil {
			return err
		}
		last = tr
		traced = append(traced, ms(w.disk+w.mem))
		get := w.fe.ops.getUS
		gets = append(gets, float64(get.len()))
		diskUS = append(diskUS, get.part(0, w.diskGets)...)
		memUS = append(memUS, get.part(w.diskGets, -1)...)
		allUS = append(allUS, get.part(0, -1)...)
		sp := tr.spans()
		self := selfTimes(sp)
		for _, c := range spansNamed(sp, "cell") {
			if c.Attrs["outcome"] == "hit" {
				hitUS = append(hitUS, float64(c.End-c.Start)/1e3)
			}
		}
		if gen := spansNamed(sp, "generate"); len(gen) == 2 {
			genSelf = append(genSelf, float64(self[gen[1].ID])/1e6)
		}
		csvMS = append(csvMS, float64(w.pMem.csvNS)/1e6)
		st := w.fe.stats()
		hits = append(hits, float64(st.Hits)/2)
		ratio = append(ratio, float64(st.Hits+st.Dedup)/float64(st.total()))
	}
	p99, _ := percentile(sorted(allUS), 99)
	r.set("sweep.store.get.count", "count", median(gets), len(gets))
	r.set("sweep.store.get.disk_us_p50", "us", median(diskUS), len(diskUS))
	r.set("sweep.store.get.mem_us_p50", "us", median(memUS), len(memUS))
	r.set("sweep.store.get.us_p99", "us", p99, len(allUS))
	r.set("sweep.cell.hit.us_p50", "us", median(hitUS), len(hitUS))
	r.set("experiments.generate.self_ms", "ms", median(genSelf), len(genSelf))
	r.set("experiments.csv.ms", "ms", median(csvMS), len(csvMS))
	r.set("sweep.exec.warm.hits", "count", median(hits), len(hits))
	r.set("sweep.exec.warm.hit_ratio", "frac", median(ratio), len(ratio))
	r.set("obsv.trace_overhead_frac.figs-warm", "frac", median(traced)/median(plain)-1, len(traced))
	return writeSpans(e, "figs-warm", last)
}

// ledgerSim runs pass 0 of each supply class once, traced, counting the
// allocations of every device.New and Device.Run.
func ledgerSim(ctx context.Context, e *env, r *result) error {
	if err := resetPeakRSS(); err != nil {
		return err
	}
	var newUS, newAllocs []float64
	tctx, tr, _ := tracedCtx(ctx)
	for _, class := range simClasses {
		cells, err := simMatrix(class, passSeed(e.seed, 0))
		if err != nil {
			return err
		}
		want, _ := simWant(e.golden, class, e.seed, cells)
		cctx, end := startSpan(tctx, "pass."+class)
		m0 := memSnap()
		p := simPass(cctx, r, cells, want, true)
		m1 := memSnap()
		end()
		var runMS, runAllocs []float64
		for _, s := range p.runs {
			newUS = append(newUS, float64(s.NewNS)/1e3)
			newAllocs = append(newAllocs, float64(s.NewAllocs))
			runMS = append(runMS, float64(s.RunNS)/1e6)
			runAllocs = append(runAllocs, float64(s.RunAllocs))
		}
		r.set("device.run."+class+".ms_p50", "ms", median(runMS), len(runMS))
		r.set("device.run."+class+".allocs", "count", median(runAllocs), len(runAllocs))
		r.set("device.sim."+class+".cycles", "count", float64(p.cycles), len(p.runs))
		r.set("device.sim."+class+".periods", "count", float64(p.periods), len(p.runs))
		r.set("device.sim."+class+".backups", "count", float64(p.backups), len(p.runs))
		r.set("device.alloc_mb_per_pass."+class, "MB", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6, 1)
	}
	r.set("device.new.us", "us", median(newUS), len(newUS))
	r.set("device.new.allocs", "count", median(newAllocs), len(newAllocs))
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	r.set("process.peak_rss_mb.sim", "MB", rss, 1)
	return writeSpans(e, "sim", tr)
}

// ledgerServe primes a fresh ehserve with traced requests, then drives
// the mix at both rates with 1% of requests traced and fetches each
// traced request's server-side spans. The client side records a span per
// request.
func ledgerServe(ctx context.Context, e *env, r *result) error {
	tr := newTracer()
	ctx = tr.attach(ctx)
	ping, err := startPing(ctx, e.tmp)
	if err != nil {
		return err
	}
	defer ping.stop()
	s, p, primeTraces, err := serveSetup(ctx, e, r, true)
	if err != nil {
		return err
	}
	defer s.stop()
	var render []float64
	for _, tid := range primeTraces {
		sp, err := s.serverSpans(tid)
		if err != nil {
			return err
		}
		for _, x := range spansNamed(sp, "render") {
			render = append(render, float64(x.End-x.Start)/1e3)
		}
	}
	r.set("ehserve.span.render.us_p50", "us", median(render), len(render))

	var lookup []float64
	for i, rate := range []struct {
		name string
		rps  float64
	}{{"light", 200}, {"heavy", 2000}} {
		lr := drive(ctx, s, ping, p, r, rate.rps, ledgerServeSpell, e.seed+int64(i), ledgerTraceFrac)
		lat := lr.latenciesMS("")
		p90, _ := percentile(lat, 90)
		p99, _ := percentile(lat, 99)
		late, _ := percentile(lr.lateMS(), 99)
		r.set("ehserve."+rate.name+".p90_ms", "ms", p90, len(lat))
		r.set("ehserve."+rate.name+".p99_ms", "ms", p99, len(lat))
		r.set("ehserve."+rate.name+".max_ms", "ms", lat[len(lat)-1], len(lat))
		r.set("loadgen."+rate.name+".late_p99_ms", "ms", late, len(lat))
		for _, sp := range lr.spans {
			for _, x := range spansNamed(sp, "cache.lookup") {
				lookup = append(lookup, float64(x.End-x.Start)/1e3)
			}
		}
		if rate.name != "heavy" {
			continue
		}
		for _, k := range requestKinds {
			kl := lr.latenciesMS(k.kind)
			r.set("ehserve."+k.kind+".p50_ms", "ms", median(kl), len(kl))
		}
		var server []float64
		for _, sp := range lr.spans {
			for _, x := range spansNamed(sp, "request") {
				server = append(server, float64(x.End-x.Start)/1e3)
			}
		}
		r.set("ehserve.server.p50_us", "us", median(server), len(server))
		var kb []float64
		for i, b := range lr.bytes {
			if lr.mix[i].kind != "ping" {
				kb = append(kb, b/1e3)
			}
		}
		r.set("ehserve.resp.kb_mean", "kB", mean(kb), len(kb))
		checkServed(s, r, lr.ehserveRequests())
	}
	r.set("ehserve.span.cache_lookup.us_p50", "us", median(lookup), len(lookup))
	rss, err := peakRSSMB(s.cmd.Process.Pid)
	if err != nil {
		return err
	}
	r.set("process.peak_rss_mb.ehserve", "MB", rss, 1)
	return writeSpans(e, "serve", tr)
}
