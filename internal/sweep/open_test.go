package sweep

import (
	"os"
	"path/filepath"
	"testing"
)

// TestOpenExecutor covers the -cache flag wiring ehfigs and ehserve
// share: every mode yields an executor, disk persists under the given
// directory, junk is rejected.
func TestOpenExecutor(t *testing.T) {
	if e, err := OpenExecutor("off", ""); err != nil || e.Store() != nil {
		t.Fatalf("off: exec %v err %v", e, err)
	}
	if e, err := OpenExecutor("mem", ""); err != nil || e.Store() == nil {
		t.Fatalf("mem: exec %v err %v", e, err)
	}
	dir := filepath.Join(t.TempDir(), "cas")
	e, err := OpenExecutor("disk", dir)
	if err != nil || e.Store() == nil {
		t.Fatalf("disk: exec %v err %v", e, err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("disk mode did not create %s: %v", dir, err)
	}
	if _, err := OpenExecutor("bogus", ""); err == nil {
		t.Fatal("bogus cache mode accepted")
	}
}
