package bench

import (
	"strings"
	"testing"
)

func checkTable(t *testing.T, tbl *Table, wantLines []string) {
	t.Helper()
	if len(tbl.XVals) == 0 {
		t.Fatal("table has no x values")
	}
	for _, name := range wantLines {
		vals, ok := tbl.Lines[name]
		if !ok {
			t.Fatalf("missing series %q in %s", name, tbl.Title)
		}
		if len(vals) != len(tbl.XVals) {
			t.Fatalf("series %q has %d points, want %d", name, len(vals), len(tbl.XVals))
		}
	}
	s := tbl.Format()
	if !strings.Contains(s, tbl.Title) {
		t.Error("Format must include the title")
	}
}

func TestFig6aTiny(t *testing.T) {
	tbl, err := Fig6a(Tiny)
	if err != nil {
		t.Fatalf("Fig6a: %v", err)
	}
	checkTable(t, tbl, []string{lineBEASSPC, lineBEASRA, lineSampl, lineHisto, lineBlinkDB})
	// Key claims at tiny scale: BEAS accuracy is valid (in [0,1]) and the
	// eta series lower-bounds the accuracy series.
	for i := range tbl.XVals {
		acc := tbl.Lines[lineBEASSPC][i]
		eta := tbl.Lines[lineBEASSPCEta][i]
		if acc < 0 || acc > 1 {
			t.Errorf("BEAS_SPC accuracy out of range: %g", acc)
		}
		if eta >= 0 && acc >= 0 && acc+1e-6 < eta {
			t.Errorf("alpha point %d: accuracy %.4f below eta %.4f", i, acc, eta)
		}
	}
}

func TestFig6bAnd6cTiny(t *testing.T) {
	for name, f := range map[string]func(Config) (*Table, error){"6b": Fig6b, "6c": Fig6c} {
		tbl, err := f(Tiny)
		if err != nil {
			t.Fatalf("Fig%s: %v", name, err)
		}
		checkTable(t, tbl, []string{lineBEASSPC, lineBEASRA})
	}
}

func TestFig6dTinyMAC(t *testing.T) {
	tbl, err := Fig6d(Tiny)
	if err != nil {
		t.Fatalf("Fig6d: %v", err)
	}
	checkTable(t, tbl, []string{lineBEASSPC, lineSampl})
	for _, v := range tbl.Lines[lineBEASSPC] {
		if v < -1 || v > 1 {
			t.Errorf("MAC out of range: %g", v)
		}
	}
}

func TestFig6eTiny(t *testing.T) {
	tbl, err := Fig6e(Tiny)
	if err != nil {
		t.Fatalf("Fig6e: %v", err)
	}
	if len(tbl.XVals) != len(Tiny.TPCHScales) {
		t.Errorf("x axis = %v", tbl.XVals)
	}
}

func TestFig6gTiny(t *testing.T) {
	cfg := Tiny
	tbl, err := Fig6g(cfg)
	if err != nil {
		t.Fatalf("Fig6g: %v", err)
	}
	if len(tbl.XVals) != 5 {
		t.Errorf("#-sel axis = %v", tbl.XVals)
	}
	checkTable(t, tbl, []string{lineBEASSPC, lineBEASRA})
}

func TestFig6iTiny(t *testing.T) {
	tbl, err := Fig6i(Tiny)
	if err != nil {
		t.Fatalf("Fig6i: %v", err)
	}
	if len(tbl.XVals) != 3 {
		t.Errorf("type axis = %v", tbl.XVals)
	}
	// SPC column populates BEAS_SPC; RA column populates BEAS_RA.
	if tbl.Lines[lineBEASSPC][0] < 0 {
		t.Error("SPC column should have a BEAS_SPC value")
	}
	if tbl.Lines[lineBEASRA][1] < 0 {
		t.Error("RA column should have a BEAS_RA value")
	}
}

func TestFig6jTiny(t *testing.T) {
	tbl, err := Fig6j(Tiny)
	if err != nil {
		t.Fatalf("Fig6j: %v", err)
	}
	checkTable(t, tbl, []string{"SPC", "RA"})
	for _, series := range []string{"SPC", "RA"} {
		for i, v := range tbl.Lines[series] {
			if v == 0 {
				t.Errorf("%s alpha_exact[%d] = 0", series, i)
			}
			if v > 1 {
				t.Errorf("%s alpha_exact[%d] = %g > 1", series, i, v)
			}
		}
	}
}

func TestFig6kTiny(t *testing.T) {
	tbl, err := Fig6k(Tiny)
	if err != nil {
		t.Fatalf("Fig6k: %v", err)
	}
	checkTable(t, tbl, []string{"total", "used", "constraints"})
	for i := range tbl.XVals {
		total, used, cons := tbl.Lines["total"][i], tbl.Lines["used"][i], tbl.Lines["constraints"][i]
		if total <= 0 {
			t.Errorf("%s: empty index", tbl.XVals[i])
		}
		if used > total+1e-9 {
			t.Errorf("%s: used (%.2f) exceeds total (%.2f)", tbl.XVals[i], used, total)
		}
		if cons > total+1e-9 {
			t.Errorf("%s: constraints (%.2f) exceed total (%.2f)", tbl.XVals[i], cons, total)
		}
	}
}

func TestFig6lTiny(t *testing.T) {
	tbl, err := Fig6l(Tiny)
	if err != nil {
		t.Fatalf("Fig6l: %v", err)
	}
	checkTable(t, tbl, []string{"plan-gen", "plan-exec", "full-eval"})
	for i := range tbl.XVals {
		if tbl.Lines["plan-exec"][i] < 0 || tbl.Lines["full-eval"][i] <= 0 {
			t.Errorf("timing column %d not positive", i)
		}
	}
}

// TestOverloadSmoke runs the saturation campaign at a small size. Every
// mode must finish without a contained panic or an η outside [0, 1]; the
// reject-only baseline must never degrade an answer, and the pinned levels
// must hold their level.
func TestOverloadSmoke(t *testing.T) {
	res, err := runOverload(overloadConfig{persons: 100, pois: 200, clients: 2, batches: 3, batchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("got %d modes, want 4", len(res))
	}
	for _, o := range res {
		if o.Served == 0 {
			t.Errorf("mode %s served nothing: %+v", o.Mode, o)
		}
		switch o.Mode {
		case "off":
			if o.Degraded != 0 || o.FinalLevel != 0 {
				t.Errorf("reject-only baseline degraded: %+v", o)
			}
		case "1", "2":
			if want := int(o.Mode[0] - '0'); o.FinalLevel != want || o.LevelShifts != 0 {
				t.Errorf("pinned mode %s moved: level %d, %d shifts", o.Mode, o.FinalLevel, o.LevelShifts)
			}
		}
	}
}

func TestTableFormatMissingValues(t *testing.T) {
	tbl := newTable("demo", "x")
	tbl.XVals = []string{"1", "2"}
	tbl.addPoint("a", 0.5)
	tbl.addPoint("a", -1) // unsupported marker
	s := tbl.Format()
	if !strings.Contains(s, "-") {
		t.Error("missing values should render as -")
	}
}
