package harness

import (
	"reflect"
	"strings"
	"testing"
)

// fastCfg keeps tests quick; drivers are deterministic per seed.
var fastCfg = Config{Seed: 99, WebRequests: 12, DBQueries: 6, AttackBudget: 3000}

func TestTable1ShapeMatchesPaper(t *testing.T) {
	tab, err := Table1(fastCfg)
	if err != nil {
		t.Fatal(err)
	}
	v := tab.Values
	// Table I's qualitative content, all measured here.
	cases := []struct {
		key  string
		want float64
	}{
		{"ssp/brop", 0}, {"ssp/correct", 1},
		{"raf-ssp/brop", 1}, {"raf-ssp/correct", 0},
		{"dynaguard/brop", 1}, {"dynaguard/correct", 1},
		{"dcr/brop", 1}, {"dcr/correct", 1},
		{"p-ssp/brop", 1}, {"p-ssp/correct", 1},
	}
	for _, c := range cases {
		if got, ok := v[c.key]; !ok || got != c.want {
			t.Errorf("%s = %v (ok=%v), want %v", c.key, got, ok, c.want)
		}
	}
	// P-SSP must be the cheapest BROP-resistant+correct scheme.
	pssp := v["p-ssp/overhead/compiler"]
	if pssp >= v["dynaguard/overhead/compiler"] {
		t.Errorf("p-ssp overhead %.4f >= dynaguard %.4f", pssp, v["dynaguard/overhead/compiler"])
	}
	if pssp >= v["dcr/overhead/compiler"] {
		t.Errorf("p-ssp overhead %.4f >= dcr %.4f", pssp, v["dcr/overhead/compiler"])
	}
	if r := tab.Render(); !strings.Contains(r, "p-ssp") || !strings.Contains(r, "Yes") {
		t.Error("render looks wrong")
	}
}

func TestFigure5ShapeMatchesPaper(t *testing.T) {
	tab, err := Figure5(fastCfg)
	if err != nil {
		t.Fatal(err)
	}
	avgC := tab.Values["average/compiler"]
	avgI := tab.Values["average/instrumented"]
	// Paper: 0.24% compiler, 1.01% instrumentation. We require the shape:
	// both small, instrumentation costlier than compilation.
	if avgC <= 0 || avgC > 0.02 {
		t.Errorf("compiler avg overhead %.4f outside (0, 2%%]", avgC)
	}
	if avgI <= avgC {
		t.Errorf("instrumented avg %.4f not above compiler avg %.4f", avgI, avgC)
	}
	if avgI > 0.05 {
		t.Errorf("instrumented avg overhead %.4f implausibly high", avgI)
	}
	// Call-heavy perlbench must pay more than loop-heavy libquantum.
	if tab.Values["400.perlbench/compiler"] <= tab.Values["462.libquantum/compiler"] {
		t.Error("call-heavy program not costlier than loop-heavy one")
	}
	if len(tab.Rows) != 29 { // 28 programs + average
		t.Errorf("%d rows", len(tab.Rows))
	}
}

func TestTable2ShapeMatchesPaper(t *testing.T) {
	tab, err := Table2(fastCfg)
	if err != nil {
		t.Fatal(err)
	}
	comp := tab.Values["compilation"]
	dyn := tab.Values["instrumentation/dynamic"]
	static := tab.Values["instrumentation/static"]
	if comp <= 0 || comp > 0.05 {
		t.Errorf("compilation expansion %.4f outside (0, 5%%]", comp)
	}
	if dyn != 0 {
		t.Errorf("dynamic instrumentation expansion %.4f, want exactly 0", dyn)
	}
	if static <= dyn || static > 0.30 {
		t.Errorf("static expansion %.4f implausible", static)
	}
}

func TestTable3NegligibleServerOverhead(t *testing.T) {
	tab, err := Table3(fastCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, srv := range []string{"apache2", "nginx"} {
		native := tab.Values[srv+"/native"]
		for _, setting := range []string{"compiler", "instrumented"} {
			got := tab.Values[srv+"/"+setting]
			if over := got/native - 1; over < -0.001 || over > 0.05 {
				t.Errorf("%s %s overhead %.4f outside [0, 5%%]", srv, setting, over)
			}
		}
	}
	// Apache analog heavier than nginx analog, as in the paper's table.
	if tab.Values["apache2/native"] <= tab.Values["nginx/native"] {
		t.Error("apache2 not heavier than nginx")
	}
}

func TestTable4DatabasesAndMemory(t *testing.T) {
	tab, err := Table4(fastCfg)
	if err != nil {
		t.Fatal(err)
	}
	// SQLite far heavier per query (167ms vs 3.3ms shape).
	if tab.Values["sqlite/native"] < 10*tab.Values["mysql/native"] {
		t.Error("sqlite/mysql ratio too small")
	}
	for _, db := range []string{"mysql", "sqlite"} {
		native := tab.Values[db+"/native"]
		comp := tab.Values[db+"/compiler"]
		if over := comp/native - 1; over < -0.001 || over > 0.05 {
			t.Errorf("%s compiler overhead %.4f", db, over)
		}
		// Memory essentially unchanged (paper: identical MB readings).
		memN := tab.Values[db+"/mem/native"]
		memI := tab.Values[db+"/mem/instrumented"]
		if memI < memN || memI > memN*1.01 {
			t.Errorf("%s memory native %.0f vs instrumented %.0f", db, memN, memI)
		}
	}
}

func TestTable5ShapeMatchesPaper(t *testing.T) {
	tab, err := Table5(fastCfg, false)
	if err != nil {
		t.Fatal(err)
	}
	v := tab.Values
	pssp := v["p-ssp"]
	nt := v["p-ssp-nt"]
	lv2 := v["p-ssp-lv (2 vars)"]
	lv4 := v["p-ssp-lv (4 vars)"]
	owf := v["p-ssp-owf"]

	// Paper: 6 / 343 / 343 / 986 / 278.
	if pssp == 0 || pssp > 30 {
		t.Errorf("p-ssp delta %v, want small (paper: 6)", pssp)
	}
	if nt < 300 || nt > 400 {
		t.Errorf("p-ssp-nt delta %v, want ~343", nt)
	}
	if lv2 < nt-30 || lv2 > nt+30 {
		t.Errorf("lv(2 vars) %v should be close to nt %v (one rdrand each)", lv2, nt)
	}
	if lv4 < 2.5*lv2 || lv4 > 3.5*lv2 {
		t.Errorf("lv(4 vars) %v not ~3x lv(2 vars) %v", lv4, lv2)
	}
	if owf < 200 || owf >= nt {
		t.Errorf("owf %v, want ~278 and below nt %v", owf, nt)
	}
}

func TestTable5Sweep(t *testing.T) {
	tab, err := Table5(fastCfg, true)
	if err != nil {
		t.Fatal(err)
	}
	// Monotone in the number of criticals: each extra canary costs one more
	// rdrand.
	var prev float64
	for v := 1; v <= 8; v++ {
		key := "p-ssp-lv sweep " + string(rune('0'+v)) + " criticals"
		cur, ok := tab.Values[key]
		if !ok {
			t.Fatalf("missing sweep value %q", key)
		}
		if v > 1 && cur <= prev {
			t.Errorf("sweep not monotone at %d criticals: %v <= %v", v, cur, prev)
		}
		prev = cur
	}
}

func TestEffectivenessMatchesPaper(t *testing.T) {
	tab, err := Effectiveness(fastCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, srv := range []string{"nginx-vuln", "ali-vuln"} {
		if tab.Values[srv+"/ssp/success"] != 1 {
			t.Errorf("%s: attack on SSP did not succeed", srv)
		}
		trials := tab.Values[srv+"/ssp/trials"]
		if trials < 8 || trials > 2048 {
			t.Errorf("%s: SSP attack trials %v outside byte-by-byte range", srv, trials)
		}
		if tab.Values[srv+"/p-ssp/success"] != 0 {
			t.Errorf("%s: attack on P-SSP succeeded", srv)
		}
	}
}

// TestEffectivenessIsHostIndependent: the §VI-C table — rows, values and
// notes — is the same at any worker count, so its bytes do not depend on
// the host's CPU count.
func TestEffectivenessIsHostIndependent(t *testing.T) {
	var tabs [2]*Table
	for i, workers := range []int{1, 3} {
		cfg := fastCfg
		cfg.Workers = workers
		tab, err := Effectiveness(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tabs[i] = tab
	}
	if !reflect.DeepEqual(tabs[0], tabs[1]) {
		t.Errorf("effectiveness differs by worker count:\n 1: %+v\n 3: %+v", tabs[0], tabs[1])
	}
}

func TestCompatibilityMatrixClean(t *testing.T) {
	tab, err := Compatibility(fastCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"ssp+ssp", "ssp+p-ssp", "p-ssp+ssp", "p-ssp+p-ssp"} {
		if fp := tab.Values[k+"/falsepositives"]; fp != 0 {
			t.Errorf("%s: %v false positives", k, fp)
		}
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
}

func TestGlobalBufferVariant(t *testing.T) {
	tab, err := GlobalBuffer(fastCfg)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Values["layoutPreserved"] != 1 {
		t.Error("GB variant does not preserve the SSP stack layout")
	}
	if tab.Values["correct"] != 1 {
		t.Error("GB variant incorrect across fork")
	}
	if tab.Values["brop"] != 1 {
		t.Error("GB variant does not prevent BROP")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:  "T",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"xxx", "y"}},
		Notes:  []string{"n1"},
	}
	r := tab.Render()
	for _, want := range []string{"T\n", "a", "bb", "xxx", "note: n1"} {
		if !strings.Contains(r, want) {
			t.Errorf("render missing %q:\n%s", want, r)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Seed == 0 || c.WebRequests == 0 || c.DBQueries == 0 || c.AttackBudget == 0 {
		t.Fatalf("defaults not applied: %+v", c)
	}
}
