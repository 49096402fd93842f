package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"ehmodel/internal/runner"
)

// TestRunDrivers: the drivers run at once, yet their figures and
// failures come back in list order when they finish in reverse (each
// driver waits for the one after it, so the last finishes first). A
// panicking driver becomes its own Failure wrapping *runner.PanicError,
// a driver's partial figure survives beside its error, and the other
// drivers' figures are untouched.
func TestRunDrivers(t *testing.T) {
	const n = 5
	gates := make([]chan struct{}, n)
	for i := range gates {
		gates[i] = make(chan struct{})
	}
	close(gates[n-1])
	partial := errors.New("partial sweep")
	var ds []driver
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("d%d", i)
		ds = append(ds, driver{id, func(context.Context) ([]*Figure, error) {
			<-gates[i]
			if i > 0 {
				defer close(gates[i-1])
			}
			switch i {
			case 1:
				panic("driver bug")
			case 3:
				return []*Figure{{ID: id}}, partial
			}
			return []*Figure{{ID: id}, {ID: id + "b"}}, nil
		}})
	}

	figs, failures := runDrivers(context.Background(), ds)
	var ids []string
	for _, f := range figs {
		ids = append(ids, f.ID)
	}
	if want := []string{"d0", "d0b", "d2", "d2b", "d3", "d4", "d4b"}; !reflect.DeepEqual(ids, want) {
		t.Errorf("figures %v, want %v", ids, want)
	}
	if len(failures) != 2 || failures[0].ID != "d1" || failures[1].ID != "d3" {
		t.Fatalf("failures %v, want d1 then d3", failures)
	}
	var pe *runner.PanicError
	if !errors.As(failures[0].Err, &pe) || pe.Value != "driver bug" || len(pe.Stack) == 0 {
		t.Errorf("d1 failure %v does not wrap the driver's *runner.PanicError", failures[0].Err)
	}
	if !errors.Is(failures[1].Err, partial) {
		t.Errorf("d3 failure %v, want the driver's own error", failures[1].Err)
	}
}

// TestDriversOrder pins the order GenerateFigures reports in: catalog
// order except that tail precedes charging and the §VI-C bit-precision
// case comes last, with Figs. 8 and 9 sharing one driver.
func TestDriversOrder(t *testing.T) {
	var ids []string
	for _, d := range drivers("all", true) {
		ids = append(ids, d.id)
	}
	want := []string{
		"2", "3", "4", "5", "6", "7", "8/9", "10", "11",
		"table2", "storemajor", "storemajor-device", "circular",
		"clank-buffers", "clank-watchdog", "hibernus-margin", "mementos-gap",
		"tail", "charging", "breakeven", "breakdown", "capacitor", "nvm",
		"variability", "bitprecision",
	}
	if !reflect.DeepEqual(ids, want) {
		t.Errorf("drivers %v, want %v", ids, want)
	}
	for _, id := range FigureIDs() {
		ds := drivers(id, true)
		if len(ds) != 1 {
			t.Errorf("figure %s: %d drivers, want 1", id, len(ds))
		}
	}
}
