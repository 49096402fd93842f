package strategy

import "ehmodel/internal/device"

// This file implements device.Memoryless for the catalog runtimes: the
// claim that Reset followed by Boot rebuilds all of a strategy's state
// from its parameters, so a zero-commit period the batched engine
// replays instead of simulating leaves no trace the strategy could
// reveal. Each claim follows from the strategy's fields:
//
//   - Timer, Mementos and DINO hold parameters only.
//   - Hibernus, Speculative and NVP add a comparator phase and arm
//     flag, which Reset clears and Boot re-arms.
//   - Chain, MixedVolatility and CacheVolatile add write or access sets,
//     which Reset empties.
//   - Alpaca's task table and boundary set derive from the program at
//     Attach, and its write set, span and entry are rebuilt by Reset and
//     Boot. Only its commit log is run-wide, and a failed commit still
//     appends to it, so an instance recording commits opts out.
//   - Clank's Stats and violation set and Ratchet's violation count
//     span the whole run and count triggers whose backup then failed,
//     so a replayed period would leave them short. Neither implements
//     the interface.
//
// SenseCommit holds no state of its own and defers to the strategy it
// wraps. RegionMeter accumulates traversal readings across periods and
// does not implement the interface either.

// Memoryless implements device.Memoryless.
func (t *Timer) Memoryless() bool { return true }

// Memoryless implements device.Memoryless.
func (s *Speculative) Memoryless() bool { return true }

// Memoryless implements device.Memoryless.
func (h *Hibernus) Memoryless() bool { return true }

// Memoryless implements device.Memoryless.
func (m *Mementos) Memoryless() bool { return true }

// Memoryless implements device.Memoryless.
func (dn *DINO) Memoryless() bool { return true }

// Memoryless implements device.Memoryless.
func (c *Chain) Memoryless() bool { return true }

// Memoryless implements device.Memoryless: true unless the instance
// records its commit log.
func (a *Alpaca) Memoryless() bool { return !a.recordCommits }

// Memoryless implements device.Memoryless.
func (n *NVP) Memoryless() bool { return true }

// Memoryless implements device.Memoryless.
func (m *MixedVolatility) Memoryless() bool { return true }

// Memoryless implements device.Memoryless.
func (c *CacheVolatile) Memoryless() bool { return true }

// Memoryless implements device.Memoryless by deferring to the wrapped
// strategy.
func (s *SenseCommit) Memoryless() bool {
	m, ok := s.inner.(device.Memoryless)
	return ok && m.Memoryless()
}

var (
	_ device.Memoryless = (*Timer)(nil)
	_ device.Memoryless = (*Alpaca)(nil)
	_ device.Memoryless = (*SenseCommit)(nil)
)
