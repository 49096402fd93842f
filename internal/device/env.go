package device

import (
	"context"
	"time"

	"ehmodel/internal/obsv"
)

// Env is the run environment a CLI chooses once and every device built
// below it inherits, however many call layers down: it rides the
// context the way spans and the sweep's provenance log do. It has three
// fields: the engine, the per-run deadline and the observer provider.
// The library code that builds devices from a context (the sweep
// executor and the fault auditor) reads it; a Config built by hand
// ignores it. The zero Env runs the batched engine with no deadline and
// observability off.
type Env struct {
	// Engine is the engine for every device whose Config leaves Engine
	// at its zero value.
	Engine Engine
	// RunTimeout is the wall-clock budget of every device whose Config
	// leaves RunTimeout at zero (see Config.RunTimeout); zero means no
	// deadline.
	RunTimeout time.Duration
	// Observe, when non-nil, is called once per simulated device and its
	// tracer attached to that device, so it can hand out per-device
	// sinks (a Collector's loss-free per-worker Metrics, or a shared
	// Chrome sink wrapped in WithTid). A result answered from a cache
	// simulates no device and calls it not at all.
	Observe func() obsv.Tracer
}

type envKey struct{}

// WithEnv returns ctx carrying env.
func WithEnv(ctx context.Context, env Env) context.Context {
	return context.WithValue(ctx, envKey{}, env)
}

// EnvFrom returns the context's run environment, or the zero Env.
func EnvFrom(ctx context.Context) Env {
	env, _ := ctx.Value(envKey{}).(Env)
	return env
}

// Tracer calls the Observe provider once and returns its tracer; nil
// when the environment has no provider.
func (e Env) Tracer() obsv.Tracer {
	if e.Observe == nil {
		return nil
	}
	return e.Observe()
}
