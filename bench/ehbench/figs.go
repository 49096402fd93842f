package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// checkPass checks one figure pass: no figure failed and every CSV
// matches its golden digest.
func checkPass(e *env, r *result, name string, p figPass) bool {
	if !r.check("figures.no_failures", len(p.failures) == 0, "%s", strings.Join(p.failures, "; ")) {
		return false
	}
	d := figuresDiff(e.golden, "all", p.csv)
	return r.check(name, d == "", "%s", d)
}

// coldPass is one figs-cold operation: a fresh memory-store executor,
// GenerateFigures("all", quick) and every CSV hashed.
func coldPass(ctx context.Context, e *env, r *result, timed bool) (time.Duration, *figExec, figPass, error) {
	t := time.Now()
	fe, err := newFigExec("", timed)
	if err != nil {
		return 0, nil, figPass{}, err
	}
	p := runFigures(ctx, "all")
	d := time.Since(t)
	st := fe.stats()
	ok := checkPass(e, r, "figs.cold.golden", p)
	ok = r.check("figs.cold.cells_computed", st.Misses > 0 && st.Bypass == 0,
		"%d misses, %d bypassed of %d cells", st.Misses, st.Bypass, st.total()) && ok
	r.attempt(ok)
	return d, fe, p, nil
}

func runFigsCold(ctx context.Context, e *env, r *result) error {
	if err := setupPhase(e, r, fullTick, func() error {
		_, _, _, err := coldPass(ctx, e, r, false)
		return err
	}); err != nil {
		return err
	}
	ops, err := timedLoop(ctx, e, fullTick, func() (float64, error) {
		d, _, _, err := coldPass(ctx, e, r, false)
		return ms(d), err
	})
	if err != nil {
		return err
	}
	setOps(r, ops, fullTick.name)
	return nil
}

// fillStore runs one cold pass into a fresh on-disk CAS at dir.
func fillStore(ctx context.Context, e *env, r *result, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if _, err := newFigExec(dir, false); err != nil {
		return err
	}
	r.attempt(checkPass(e, r, "figs.warm.fill_golden", runFigures(ctx, "all")))
	return nil
}

// warmRun is one figs-warm operation: a fresh tiered executor over the
// filled CAS, one pass answered by the disk tier and one by the memory
// tier.
type warmRun struct {
	fe          *figExec
	disk, mem   time.Duration
	pDisk, pMem figPass
	diskGets    int // store gets the disk-tier pass made (timed executors only)
}

// warmIteration runs one figs-warm operation. Both passes must be all
// hits and match the golden digests.
func warmIteration(ctx context.Context, e *env, r *result, dir string, timed bool) (warmRun, error) {
	var w warmRun
	t0 := time.Now()
	fe, err := newFigExec(dir, timed)
	if err != nil {
		return w, err
	}
	w.fe = fe
	w.pDisk = runFigures(ctx, "all")
	t1 := time.Now()
	s1 := fe.stats()
	if fe.ops != nil {
		w.diskGets = fe.ops.getUS.len()
	}
	w.pMem = runFigures(ctx, "all")
	t2 := time.Now()
	s2 := fe.stats().sub(s1)
	w.disk, w.mem = t1.Sub(t0), t2.Sub(t1)
	for _, pass := range []struct {
		p  figPass
		st execStats
	}{{w.pDisk, s1}, {w.pMem, s2}} {
		ok := checkPass(e, r, "figs.warm.golden", pass.p)
		st := pass.st
		ok = r.check("figs.warm.all_hits", st.Hits > 0 && st.Hits == st.total(),
			"hits=%d misses=%d dedup=%d bypass=%d", st.Hits, st.Misses, st.Dedup, st.Bypass) && ok
		r.attempt(ok)
	}
	return w, nil
}

func runFigsWarm(ctx context.Context, e *env, r *result) error {
	dir := filepath.Join(e.tmp, "cas")
	if err := setupPhase(e, r, fullTick, func() error { return fillStore(ctx, e, r, dir) }); err != nil {
		return err
	}
	var disk, mem []float64
	ops, err := timedLoop(ctx, e, fullTick, func() (float64, error) {
		w, err := warmIteration(ctx, e, r, dir, false)
		disk = append(disk, ms(w.disk))
		mem = append(mem, ms(w.mem))
		return ms(w.disk + w.mem), err
	})
	if err != nil {
		return err
	}
	r.info("figs_warm_disk_ms", "ms", median(disk), len(disk))
	r.info("figs_warm_mem_ms", "ms", median(mem), len(mem))
	setOps(r, ops, fullTick.name)
	return nil
}
