package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// golden holds the committed reference outputs: the SHA-256 of every
// quick figure's CSV, and at seed 1 a digest of every sim-matrix cell's
// Result. Figure inputs do not depend on the seed, so the figure digests
// hold at every seed.
type golden struct {
	Figures map[string]string // figure ID → CSV SHA-256
	Sim     map[string]string // cell label → Result digest, seed 1
}

const (
	goldenFigures = "figures-quick.json"
	goldenSim     = "sim-seed1.json"
)

func loadGolden(dir string) (*golden, error) {
	g := &golden{}
	for name, dst := range map[string]*map[string]string{goldenFigures: &g.Figures, goldenSim: &g.Sim} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("golden outputs: %w", err)
		}
		if err := json.Unmarshal(b, dst); err != nil {
			return nil, fmt.Errorf("golden outputs: %s: %w", name, err)
		}
		if len(*dst) == 0 {
			return nil, fmt.Errorf("golden outputs: %s is empty", name)
		}
	}
	return g, nil
}

// updateGolden regenerates both golden files at seed 1. Every sim cell
// is also run under the reference engine, which must agree bit for bit.
func updateGolden(ctx context.Context, dir string) error {
	if _, err := newFigExec("", false); err != nil {
		return err
	}
	p := runFigures(ctx, "all")
	if len(p.failures) > 0 {
		return fmt.Errorf("figure failures: %s", strings.Join(p.failures, "; "))
	}
	sim := map[string]string{}
	for _, class := range simClasses {
		cells, err := simMatrix(class, 1)
		if err != nil {
			return err
		}
		for _, c := range cells {
			bat := runSim(ctx, c, engineBatched, false)
			ref := runSim(ctx, c, engineReference, false)
			if err := simFailure(bat); err != nil {
				return fmt.Errorf("%s: %w", c.Label, err)
			}
			if bat.Digest != ref.Digest {
				return fmt.Errorf("%s: batched and reference engines disagree", c.Label)
			}
			sim[c.Label] = bat.Digest
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, m := range map[string]map[string]string{goldenFigures: p.csv, goldenSim: sim} {
		b, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// diffDigests describes how got differs from want ("" when equal).
func diffDigests(want, got map[string]string) string {
	var bad []string
	for k, w := range want {
		g, ok := got[k]
		switch {
		case !ok:
			bad = append(bad, k+" missing")
		case g != w:
			bad = append(bad, k+" differs")
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			bad = append(bad, k+" unexpected")
		}
	}
	if len(bad) == 0 {
		return ""
	}
	sort.Strings(bad)
	if len(bad) > 4 {
		bad = append(bad[:4], fmt.Sprintf("and %d more", len(bad)-4))
	}
	return strings.Join(bad, ", ")
}

// figuresDiff compares the CSV digests of GenerateFigures(id) with the
// golden ones: all of them for "all", exactly one otherwise.
func figuresDiff(g *golden, id string, got map[string]string) string {
	if id == "all" {
		return diffDigests(g.Figures, got)
	}
	if len(got) != 1 {
		return fmt.Sprintf("%d figures, want 1", len(got))
	}
	want := map[string]string{}
	for k := range got {
		want[k] = g.Figures[k]
	}
	return diffDigests(want, got)
}
