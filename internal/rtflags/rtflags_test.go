package rtflags

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"github.com/melyruntime/mely"
)

// TestConfigKnobInventory holds the runtime's knobs to their two
// surfaces, the way TestMetricsInventoryMatchesDocs holds the metric
// families to docs/observability.md: every exported mely.Config field is
// named in README.md or under docs/, and every flag Bind declares moves
// a field — a flag left bound to nothing, or to a local, parses and does
// nothing.
func TestConfigKnobInventory(t *testing.T) {
	root := filepath.Join("..", "..")
	pages, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	var docs []byte
	for _, page := range append(pages, filepath.Join(root, "README.md")) {
		text, err := os.ReadFile(page)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, text...)
	}
	cfg := reflect.TypeOf(mely.Config{})
	for i := 0; i < cfg.NumField(); i++ {
		f := cfg.Field(i)
		if !f.IsExported() {
			continue
		}
		if !regexp.MustCompile(`\b` + f.Name + `\b`).Match(docs) {
			t.Errorf("Config.%s is named in neither README.md nor docs/*.md", f.Name)
		}
	}
	if cfg.NumField() < 20 {
		t.Errorf("only %d Config fields walked: the walk is broken", cfg.NumField())
	}

	// One flag at a time, set away from its default on a fresh binding:
	// the bound Flags must differ from an untouched one.
	untouched := Bind(flag.NewFlagSet("rt", flag.ContinueOnError))
	var names []string
	fs := flag.NewFlagSet("rt", flag.ContinueOnError)
	Bind(fs)
	fs.VisitAll(func(fl *flag.Flag) { names = append(names, fl.Name) })
	for _, name := range names {
		fs := flag.NewFlagSet("rt", flag.ContinueOnError)
		bound := Bind(fs)
		fl := fs.Lookup(name)
		value := "7"
		switch reflect.TypeOf(fl.Value).Elem().Kind() {
		case reflect.Bool:
			value = "true"
		case reflect.String:
			value = "elsewhere"
		case reflect.Int64: // flag.durationValue
			value = (7 * time.Hour).String()
		}
		if err := fs.Set(name, value); err != nil {
			t.Errorf("-%s: %v", name, err)
		} else if reflect.DeepEqual(bound, untouched) {
			t.Errorf("-%s=%s changes no field of Flags", name, value)
		}
	}
	if len(names) < 15 {
		t.Errorf("only %d flags walked: the walk is broken", len(names))
	}
}
