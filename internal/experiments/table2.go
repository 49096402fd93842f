package experiments

import (
	"context"

	"ehmodel/internal/asm"
	"ehmodel/internal/mem"
	"ehmodel/internal/workload"
)

// Table2Row is one benchmark's inventory entry: Table II of the paper
// enriched with the measured characteristics the model consumes.
type Table2Row struct {
	Name          string
	Desc          string
	Instructions  uint64
	Cycles        uint64
	LoadFrac      float64 // loads per instruction
	StoreFrac     float64 // stores per instruction
	TauStore      float64 // mean cycles between stores
	SRAMFootprint int
}

// Table2 profiles the Table II benchmarks, all on one memory system,
// taking their programs from the context's program table (see
// workload.Program).
func Table2(ctx context.Context) ([]Table2Row, error) {
	ms, err := mem.NewSystem(mem.DefaultSRAMSize, mem.DefaultFRAMSize)
	if err != nil {
		return nil, err
	}
	var rows []Table2Row
	for _, w := range workload.TableII() {
		prog, err := workload.Program(ctx, w.Name, workload.Options{Seg: asm.SRAM})
		if err != nil {
			return nil, err
		}
		p, err := workload.ProfileProgram(ms, prog, 100_000_000)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{
			Name:          w.Name,
			Desc:          w.Desc,
			Instructions:  p.Instructions,
			Cycles:        p.Cycles,
			LoadFrac:      float64(p.Loads) / float64(p.Instructions),
			StoreFrac:     float64(p.Stores) / float64(p.Instructions),
			TauStore:      p.StoreEveryCycles,
			SRAMFootprint: p.SRAMFootprint,
		})
	}
	return rows, nil
}
