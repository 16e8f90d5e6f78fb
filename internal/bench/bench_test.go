package bench

import (
	"strings"
	"testing"

	"github.com/melyruntime/mely/internal/policy"
	"github.com/melyruntime/mely/internal/scenario"
)

// TestAllExperimentsQuick runs every experiment in quick mode, checks
// the reports are well-formed, and holds all 21 of them, printed as
// `melybench -quick -all` prints them, to testdata/all_quick.golden —
// captured before the reports moved onto internal/scenario, so
// "byte-identical" is this test and not a manual diff. Shape assertions
// live with the models.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	var all strings.Builder
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			report, err := e.Run(scenario.Options{Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(report.Rows) == 0 {
				t.Fatal("empty report")
			}
			for _, row := range report.Rows {
				if len(row) != len(report.Columns) {
					t.Errorf("row %v does not match columns %v", row, report.Columns)
				}
			}
			var b strings.Builder
			if _, err := report.WriteTo(&b); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(b.String(), report.ID) {
				t.Error("rendered report must carry its ID")
			}
			all.WriteString(b.String())
		})
	}
	checkGolden(t, "all_quick.golden", all.String())
}

// TestGateRowsAreTableRows: a gate record and a table cell of one
// workload and policy are one measurement. For the two paper workloads
// the gate runs, the KEvents/s of each scenario.Run record formats to
// the cell the paper tables print for that policy — it fails the day
// internal/bench grows a measurement path of its own again.
func TestGateRowsAreTableRows(t *testing.T) {
	opt := scenario.Options{Quick: true}
	matched := 0
	for name, tables := range map[string][]string{
		"unbalanced": {"table3", "table4"},
		"penalty":    {"table5"},
	} {
		cells := make(map[string]string) // policy label -> KEvents/s cell
		for _, id := range tables {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			report, err := e.Run(opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range report.Rows {
				cells[row[0]] = row[1]
			}
		}
		res, err := scenario.Run(workloadSpec(name), opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range res.Records {
			pol, err := policy.Parse(rec.Config)
			if err != nil {
				t.Fatal(err)
			}
			cell, ok := cells[pol.Label()]
			if !ok {
				continue // a gate-only configuration (batch stealing)
			}
			matched++
			if got := f0(rec.KEventsPerSecond); got != cell {
				t.Errorf("%s/%s: gate record %s KEvents/s, table cell %s", name, rec.Config, got, cell)
			}
		}
	}
	if matched < 4 {
		t.Errorf("only %d gate records have a table row; the comparison is vacuous", matched)
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("table3"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id must fail")
	}
}

func TestReportFormatting(t *testing.T) {
	r := &Report{
		ID:      "T",
		Title:   "title",
		Columns: []string{"a", "bbbb"},
	}
	r.AddRow("x", "1")
	r.AddRow("longer", "22")
	r.AddNote("n=%d", 7)
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"T — title", "longer", "note: n=7"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}
