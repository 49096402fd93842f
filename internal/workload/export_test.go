package workload

import (
	"fmt"
	"maps"
	"sync"

	"ehmodel/internal/asm"
)

// CountBuilds wraps the Build of every registered workload with a count
// of its assemblies per options, keyed "name/seg/scale", and returns a
// snapshot of the counts and the restore that puts the plain Build
// functions back. Call both while no other goroutine reads the registry.
func CountBuilds() (counts func() map[string]int, restore func()) {
	var mu sync.Mutex
	n := map[string]int{}
	saved := maps.Clone(registry)
	for name, w := range saved {
		build := w.Build
		w.Build = func(o Options) (*asm.Program, error) {
			mu.Lock()
			n[fmt.Sprintf("%s/%v/%d", name, o.Seg, o.scale())]++
			mu.Unlock()
			return build(o)
		}
		registry[name] = w
	}
	counts = func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		return maps.Clone(n)
	}
	restore = func() { maps.Copy(registry, saved) }
	return counts, restore
}
