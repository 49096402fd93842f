package workload

import (
	"fmt"

	"ehmodel/internal/asm"
	"ehmodel/internal/cpu"
	"ehmodel/internal/mem"
)

// Profile summarizes a program's continuous execution: the inputs an
// architect needs to parameterize the EH model by hand (instruction
// mix, store density for α_B estimates, τ_store for Eq. 15 planning).
type Profile struct {
	Instructions uint64
	Cycles       uint64
	Loads        uint64
	Stores       uint64
	// StoreEveryCycles is the mean τ_store (cycles between stores).
	StoreEveryCycles float64
	// UniqueStoreWords is the distinct words written — the upper bound
	// on a run's store-queue payload.
	UniqueStoreWords int
	// SRAMFootprint is the initialized volatile data size in bytes.
	SRAMFootprint int
	Output        []uint32
}

// ProfileProgram executes prog continuously on ms, which it clears
// first, and gathers its profile. Its Output and Cycles are also the
// continuous-execution oracle that intermittent runs are checked
// against. maxSteps bounds runaway programs. A caller profiling several
// programs passes one system to every call rather than allocate and
// fault in 264 KiB for each.
func ProfileProgram(ms *mem.System, prog *asm.Program, maxSteps uint64) (*Profile, error) {
	ms.Clear()
	if err := ms.WriteSRAMImage(prog.SRAMImage); err != nil {
		return nil, err
	}
	if err := ms.WriteFRAMImage(prog.FRAMImage); err != nil {
		return nil, err
	}
	c := &cpu.Core{}
	p := &Profile{SRAMFootprint: len(prog.SRAMImage)}
	seen := make(map[uint32]struct{})
	for steps := uint64(0); !c.Halted; steps++ {
		if steps >= maxSteps {
			return nil, fmt.Errorf("workload: %q did not halt within %d steps", prog.Name, maxSteps)
		}
		st, err := c.Step(prog.Code, ms)
		if err != nil {
			return nil, err
		}
		p.Instructions++
		p.Cycles += st.Cycles
		if st.HasAccess {
			if st.Access.Store {
				p.Stores++
				seen[st.Access.Addr&^3] = struct{}{}
			} else {
				p.Loads++
			}
		}
	}
	p.UniqueStoreWords = len(seen)
	if p.Stores > 0 {
		p.StoreEveryCycles = float64(p.Cycles) / float64(p.Stores)
	}
	p.Output = append([]uint32(nil), c.OutBuf...)
	return p, nil
}
