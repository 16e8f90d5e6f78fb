package bench

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/melyruntime/mely/internal/scenario"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden files from this run")

// paperTables are the experiments a steal-path change can move: Table I
// and Tables III-VI all run the list layout or a workstealing policy.
var paperTables = []string{"table1", "table3", "table4", "table5", "table6"}

// renderPaperTables runs the paper's tables and returns them exactly as
// melybench prints them.
func renderPaperTables(t *testing.T, opt scenario.Options) string {
	t.Helper()
	var b strings.Builder
	for _, id := range paperTables {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		report, err := e.Run(opt)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if _, err := report.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// checkGolden compares got byte for byte with testdata/name (rewriting the
// file under -update).
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s drifted (the simulator's schedule changed; -update only for an intended change)\n--- got\n%s--- want\n%s",
			path, got, want)
	}
}

// TestPaperTablesQuickGolden pins the quick-mode paper tables: the sim
// gate's scenarios never run the list layout, so a change to the steal
// routine can pass the gate and still move Table III.
func TestPaperTablesQuickGolden(t *testing.T) {
	got := renderPaperTables(t, scenario.Options{Quick: true})
	if again := renderPaperTables(t, scenario.Options{Quick: true}); again != got {
		t.Fatal("quick tables differ between two runs with one seed")
	}
	checkGolden(t, "paper_tables_quick.golden", got)
}

// TestPaperTablesFullGolden is the same pin at the size melybench prints.
func TestPaperTablesFullGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size tables take several seconds")
	}
	checkGolden(t, "paper_tables_full.golden", renderPaperTables(t, scenario.Options{}))
}
