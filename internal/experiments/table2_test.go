package experiments

import "testing"

func TestTable2Default(t *testing.T) {
	rows, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows, want the six Table II benchmarks", len(rows))
	}
	for _, r := range rows {
		if r.Instructions == 0 || r.Cycles == 0 {
			t.Errorf("%s: empty profile", r.Name)
		}
		if r.LoadFrac < 0 || r.LoadFrac > 1 || r.StoreFrac < 0 || r.StoreFrac > 1 {
			t.Errorf("%s: fractions out of range", r.Name)
		}
		if r.Desc == "" {
			t.Errorf("%s: missing description", r.Name)
		}
	}
}
