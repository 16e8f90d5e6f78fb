package mely

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The census: the structural rules that keep each protocol step written
// once (docs/architecture.md) and each deleted knob, mirror and copy
// deleted. A name ban is a regular expression over source lines, so it
// also catches the name in a comment or a string; a rule about who
// references what, or about what is declared, is a go/ast fact, so a
// method value or a call split across lines counts and a comment does
// not. Every failure names the file, the line and the rule.

// censusFile is one parsed non-test Go file of the module.
type censusFile struct {
	path string // slash-separated, relative to the module root
	dir  string // "." for the root package
	src  []byte
	ast  *ast.File
}

type census struct {
	fset  *token.FileSet
	files []*censusFile
}

// loadCensus parses every non-test .go file under the module root once.
// perf/ is its own module; testdata/ and dot-directories hold no code of
// this one.
func loadCensus(t *testing.T) *census {
	t.Helper()
	c := &census{fset: token.NewFileSet()}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (path == "perf" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(c.fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		c.files = append(c.files, &censusFile{
			path: path, dir: filepath.ToSlash(filepath.Dir(path)),
			src: src, ast: f,
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.files) == 0 {
		t.Fatal("census: no Go files found")
	}
	return c
}

// root returns the files of the mely package itself.
func (c *census) root() []*censusFile {
	return slices.DeleteFunc(slices.Clone(c.files), func(f *censusFile) bool { return f.dir != "." })
}

// under returns the files in each of dirs and below.
func (c *census) under(dirs ...string) []*censusFile {
	return slices.DeleteFunc(slices.Clone(c.files), func(f *censusFile) bool {
		return !slices.ContainsFunc(dirs, func(d string) bool { return f.dir == d || strings.HasPrefix(f.dir, d+"/") })
	})
}

// ban fails the test on every line of files that matches re.
func ban(t *testing.T, files []*censusFile, rule, re string) {
	t.Helper()
	for _, m := range matchLines(files, re) {
		t.Errorf("%s: %s (%s)", m, rule, re)
	}
}

// atMost fails the test when more than n lines of files match re.
func atMost(t *testing.T, files []*censusFile, n int, rule, re string) {
	t.Helper()
	if ms := matchLines(files, re); len(ms) > n {
		t.Errorf("%s: %d lines match %s, at most %d allowed:\n%s", rule, len(ms), re, n, strings.Join(ms, "\n"))
	}
}

// matchLines reports "file:line: text" for each line matching re.
func matchLines(files []*censusFile, re string) []string {
	rx := regexp.MustCompile(re)
	var out []string
	for _, f := range files {
		for i, l := range strings.Split(string(f.src), "\n") {
			if rx.MatchString(l) {
				out = append(out, f.path+":"+strconv.Itoa(i+1)+": "+strings.TrimSpace(l))
			}
		}
	}
	return out
}

// censusRef is one reference to a name: the declaration that encloses it
// (Recv.Name for a method, the name for a function, "package scope"
// outside any function) and where it is.
type censusRef struct {
	decl string
	pos  token.Position
}

// refsByDecl finds every identifier spelling name in files — a call, a
// method value, the selector of a call split across lines — except the
// name a declaration gives, and attributes each to its enclosing
// top-level declaration. A function literal belongs to the function it
// is written in. Comments are not identifiers, so they never count.
func refsByDecl(fset *token.FileSet, files []*ast.File, name string) []censusRef {
	var out []censusRef
	for _, f := range files {
		for _, d := range f.Decls {
			decl, skip := "package scope", (*ast.Ident)(nil)
			if fd, ok := d.(*ast.FuncDecl); ok {
				decl, skip = funcName(fd), fd.Name
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id != skip && id.Name == name {
					out = append(out, censusRef{decl, fset.Position(id.Pos())})
				}
				return true
			})
		}
	}
	return out
}

// funcName is "Recv.Name" for a method and "Name" for a function.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	x := fd.Recv.List[0].Type
	for {
		switch y := x.(type) {
		case *ast.StarExpr:
			x = y.X
			continue
		case *ast.IndexExpr:
			x = y.X
			continue
		case *ast.IndexListExpr:
			x = y.X
			continue
		case *ast.Ident:
			return y.Name + "." + fd.Name.Name
		}
		return fd.Name.Name
	}
}

// refsExactly fails the test unless the references to name in files
// come from exactly the declarations in want, one reference each.
func refsExactly(t *testing.T, c *census, files []*censusFile, name string, want ...string) {
	t.Helper()
	refs := refsByDecl(c.fset, astOf(files), name)
	got := make([]string, len(refs))
	for i, r := range refs {
		got[i] = r.decl
	}
	slices.Sort(got)
	want = slices.Clone(want)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("references to %s by enclosing declaration are %v, want exactly %v:\n%s", name, got, want, listRefs(refs))
	}
}

func listRefs(refs []censusRef) string {
	var b strings.Builder
	for _, r := range refs {
		b.WriteString(r.pos.String() + ": in " + r.decl + "\n")
	}
	return b.String()
}

func astOf(files []*censusFile) []*ast.File {
	out := make([]*ast.File, len(files))
	for i, f := range files {
		out[i] = f.ast
	}
	return out
}

// typeSpecs returns every type declared in files, at any depth, for
// which keep reports true.
func typeSpecs(c *census, files []*censusFile, keep func(*ast.TypeSpec) bool) []string {
	var out []string
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok && keep(ts) {
				out = append(out, c.fset.Position(ts.Pos()).String()+": type "+ts.Name.Name)
			}
			return true
		})
	}
	return out
}

func isStruct(ts *ast.TypeSpec) bool { _, ok := ts.Type.(*ast.StructType); return ok }

// findFunc returns the declaration named decl (funcName's form) in files.
func findFunc(files []*censusFile, decl string) *ast.FuncDecl {
	for _, f := range files {
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && funcName(fd) == decl {
				return fd
			}
		}
	}
	return nil
}

// TestCensus runs every structural rule over the source tree. It needs
// no build tag and no network, and it does not skip under -short.
func TestCensus(t *testing.T) {
	c := loadCensus(t)
	t.Run("Spine", func(t *testing.T) { censusSpine(t, c) })
	t.Run("Observability", func(t *testing.T) { censusObservability(t, c) })
	t.Run("Knob", func(t *testing.T) { censusKnob(t, c) })
	t.Run("Harness", func(t *testing.T) { censusHarness(t, c) })
	t.Run("Overload", func(t *testing.T) { censusOverload(t, c) })
	t.Run("DocLinks", censusDocLinks)
}

// censusSpine: every event enters through one handler lookup, one stamp
// and one spill (docs/architecture.md "The way in"); a steal moves
// queues, not timers ("The steal transaction": no wheel is touched), and
// the thief tables each stolen queue over the in-transit marker, which
// EndMigration asserts, with no merge of its own; a lease ends by one
// rule in both hosts, when its color drains ("When a lease ends"):
// popLocal alone changes the runtime's running color,
// equeue.Core.StopRunning is the one liveness check beside the
// simulator's PostTo pin, the simulator re-homes nothing at a post, and
// PostBatch groups by hash with no color→owner memo. A PostBatch group is
// spliced or posted like Post ("A batch is handed over, not filed"): no
// filing mode of its own, and the lease-protocol step deliverLocked is
// referenced from enqueue and lockFiled only.
func censusSpine(t *testing.T, c *census) {
	root, all := c.root(), c.files
	if refs := refsByDecl(c.fset, astOf(root), "unknownHandlerError"); len(refs) > 1 {
		t.Errorf("unknownHandlerError is referenced %d times, at most once (the handler lookup):\n%s", len(refs), listRefs(refs))
	}
	atMost(t, root, 1, "one spillq.Record literal (the spill step)", `[^]]spillq\.Record\{`)
	ban(t, root, "spillPost stays deleted", `\bspillPost\b`)
	ban(t, slices.Concat(root, c.under("internal/timerwheel")), "a steal touches no timer wheel", `migrateTimers|ExtractColors|AdoptAll`)
	refsExactly(t, c, all, "ColorLive", "Core.StopRunning", "Engine.resolveOwner")
	ban(t, all, "a lease ends by Core.StopRunning alone", `endLease|ClearRunning|func \(e \*Engine\) colorLive`)
	if fd := findFunc(c.under("internal/sim"), "Engine.resolveOwner"); fd == nil {
		t.Error("internal/sim: Engine.resolveOwner not found")
	} else {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "Hash" {
				t.Errorf("%s: the simulator re-homes nothing at a post: Hash in Engine.resolveOwner", c.fset.Position(id.Pos()))
			}
			return true
		})
	}
	ban(t, root, "popLocal alone changes the running color; PostBatch keeps no color→owner memo",
		`func \(r \*Runtime\) clearRunning|slotColor|slotOwner|slotGen|func \(s \*batchScratch\) (lookup|insert)`)
	ban(t, root, "a PostBatch group has no filing mode of its own", `func \(r \*Runtime\) (deliverGroup|fileArrivals)\(|lastCQ|haveColor`)
	refsExactly(t, c, root, "deliverLocked", "Runtime.enqueue", "Runtime.lockFiled")
	ban(t, all, "the thief has no merge: EndMigration asserts the marker", `\bMergeStolen\b`)
}

// censusObservability: observability says each thing once
// (docs/observability.md): one trace writer, one Chrome entry type, one
// health report, and each fixed-bucket histogram's bounds as one
// obs.Bounds value, not a switch. The flight-recorder ring is plain words
// under one lock: the per-field atomics and their invalidate-first
// protocol stay out. The runtime owns the poll counters (netpoll reports
// each fact as a Note* call, no source registry) and the debug mux serves
// one obs.Source, not a struct of callbacks.
func censusObservability(t *testing.T, c *census) {
	if _, err := os.Stat("internal/trace"); err == nil {
		t.Error("internal/trace exists: internal/obs is the one trace package")
	}
	chrome := typeSpecs(c, c.files, func(ts *ast.TypeSpec) bool {
		return ts.Name.Name == "chromeEvent" || ts.Name.Name == "ChromeEvent"
	})
	if len(chrome) != 1 {
		t.Errorf("%d Chrome entry types, want exactly 1:\n%s", len(chrome), strings.Join(chrome, "\n"))
	}
	reports := typeSpecs(c, c.files, func(ts *ast.TypeSpec) bool {
		return ts.Name.Name == "HealthReport" && isStruct(ts)
	})
	if len(reports) != 1 {
		t.Errorf("%d HealthReport struct types, want exactly 1:\n%s", len(reports), strings.Join(reports, "\n"))
	}
	ban(t, c.files, "histogram bounds are obs.Bounds values, not bucket switches", `func .*(BatchBucket|LagBucket|DepthBucket)\(`)
	ring := slices.DeleteFunc(c.under("internal/obs"), func(f *censusFile) bool { return f.path != "internal/obs/ring.go" })
	if len(ring) == 0 {
		t.Error("internal/obs/ring.go not found")
	}
	ban(t, ring, "the ring is plain words under one lock", `atomic\.`)
	ban(t, c.files, "the runtime owns the poll counters; the mux serves one obs.Source",
		`\b(AddPollSource|PollSample|pollSources|pollRetired|TracePollWakeup|MuxConfig)\b`)
}

// censusKnob: every option has a caller (ROADMAP item 9). A value that
// only tests set is an unexported field with its value fixed, not an
// option: the batch threshold, timer tick and steal cap stay unexported
// in mely.Config, and the anomaly hook stays deleted, so nothing the root
// package declares (a field, a parameter, a type, a constant, a variable
// or a function) carries those names. The steal budget is one number,
// policy.Config.MaxStealColors; netpoll reads into one 16 KiB pool and
// fixes its write budget.
func censusKnob(t *testing.T, c *census) {
	removed := []string{"TimerTick", "BatchThreshold", "MaxStealColors", "OnAnomaly"}
	for _, f := range c.root() {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			var names []*ast.Ident
			switch n := n.(type) {
			case *ast.Field:
				names = n.Names
			case *ast.ValueSpec:
				names = n.Names
			case *ast.TypeSpec:
				names = []*ast.Ident{n.Name}
			case *ast.FuncDecl:
				names = []*ast.Ident{n.Name}
			}
			for _, id := range names {
				if slices.Contains(removed, id.Name) {
					t.Errorf("%s: %s is a removed knob of mely.Config", c.fset.Position(id.Pos()), id.Name)
				}
			}
			return true
		})
	}
	ban(t, c.under("internal/policy"), "the steal budget is policy.Config.MaxStealColors alone", `\b(BatchSteal|MaxStealColorsLimit)\b`)
	ban(t, c.under("internal/netpoll"), "netpoll's read pool and write budget are fixed", `\b(ReadBufBytes|MaxPendingWriteBytes|readBufClasses)\b`)
}

// censusHarness: one simulator harness (docs/measurement.md): a workload
// is described once and measured one way. internal/bench and
// internal/scenario share one Options type, the paper workloads'
// parameter blocks are the internal/workload specs (no mirror structs, no
// second copy of a builder), a measurement window is written in a
// scenario file or once in Go, and every scrape of a side listener goes
// through obs.Fetch.
func censusHarness(t *testing.T, c *census) {
	opts := typeSpecs(c, c.under("internal/bench", "internal/scenario"), func(ts *ast.TypeSpec) bool {
		return ts.Name.Name == "Options" && isStruct(ts)
	})
	if len(opts) != 1 {
		t.Errorf("%d Options struct types in internal/bench + internal/scenario, want exactly 1:\n%s", len(opts), strings.Join(opts, "\n"))
	}
	ban(t, c.files, "the workload specs are the parameter blocks",
		`UnbalancedParams|PenaltyParams|CacheEffParams|scenarioOptions|buildUnbalancedDynamic|simWorkloads`)
	atMost(t, c.files, 1, "a measurement window is written once in Go", `500_000_000`)
	atMost(t, c.files, 1, "a measurement window is written once in Go", `200_000_000`)
	ban(t, c.under("internal/scenario", "cmd/swsload", "cmd/melytop"), "a side listener is scraped through obs.Fetch", `http\.Get\(|client\.Get\(`)
}

// censusOverload: admission is written once (docs/architecture.md "The
// way in"): internal/admission's Layer, hosted by the runtime and by the
// simulator's overload workload. A colour's disk tail is counted once, in
// the layer's colour state, reserved by Admit; whether a colour is
// spilling is derived from that count by (*colorState).spilling, never
// stored — anywhere, the simulator included. The spill-worthiness mirror,
// the runtime's old colorAdm, the global-bound-only fork and the
// simulator's copy of the protocol stay deleted, and so do the overload
// spec keys the layer derives (scenario files and tests included).
func censusOverload(t *testing.T, c *census) {
	ban(t, c.files, "the spill backlog has no mirror",
		`SpillBacklog|syncSpillMirror|syncDiskLen|diskLen|diskCost|spilledCost|spilledTotal|weightedSpillCost|effectivePending`)
	if fd := findFunc(c.under("internal/admission"), "colorState.spilling"); fd == nil || !isSpillingMethod(fd) {
		t.Error("internal/admission: func (st *colorState) spilling() bool not found: spilling is derived there")
	}
	ban(t, c.files, "spilling is derived, never stored", `^\s*spilling\s|spilling\s*:?=[^=]`)
	ban(t, c.files, "admission has one host protocol", `colorAdm|trackColors|overloadColorState|reloadColor`)
	var spec []*censusFile
	for _, dir := range []string{"internal/scenario", "scenarios"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			src, err := os.ReadFile(path)
			spec = append(spec, &censusFile{path: filepath.ToSlash(path), src: src})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	ban(t, spec, "the layer derives the low-water mark and reload size", `low_water|reload_max`)
	ban(t, c.under("internal/spillq"), "the spill store prices nothing", `func \(.*\) Cost\(`)
}

// isSpillingMethod reports whether fd is func (*colorState) spilling() bool.
func isSpillingMethod(fd *ast.FuncDecl) bool {
	star, ok := fd.Recv.List[0].Type.(*ast.StarExpr)
	if !ok || fd.Type.Params.NumFields() != 0 || fd.Type.Results.NumFields() != 1 {
		return false
	}
	recv, _ := star.X.(*ast.Ident)
	res, _ := fd.Type.Results.List[0].Type.(*ast.Ident)
	return recv != nil && recv.Name == "colorState" && res != nil && res.Name == "bool"
}

// censusDocLinks: every relative link in README.md and docs/*.md points
// at a file that exists. External URLs are skipped: a test must not
// depend on a third party's uptime.
func censusDocLinks(t *testing.T) {
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	link := regexp.MustCompile(`\]\(([^)#]+)`)
	for _, f := range append([]string{"README.md"}, docs...) {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range bytes.Split(src, []byte("\n")) {
			for _, m := range link.FindAllSubmatch(line, -1) {
				for _, target := range strings.Fields(string(m[1])) {
					if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") || strings.HasPrefix(target, "mailto:") {
						continue
					}
					if _, err := os.Stat(filepath.Join(filepath.Dir(f), target)); err != nil {
						t.Errorf("%s:%d: broken link: %s", f, i+1, target)
					}
				}
			}
		}
	}
}

// TestRefsByDecl pins the helper every "referenced only from" rule rests
// on, over small in-memory sources.
func TestRefsByDecl(t *testing.T) {
	cases := []struct {
		name, src string
		want      []string
	}{
		{"call", `func (q *Core) StopRunning() { q.ColorLive(1, nil) }`, []string{"Core.StopRunning"}},
		{"method value", `func (e *Engine) resolveOwner() { live := e.c.ColorLive; _ = live }`, []string{"Engine.resolveOwner"}},
		{"split across lines", "func (e *Engine) post() {\n\te.cores[0].\n\t\tColorLive(1, nil)\n}", []string{"Engine.post"}},
		{"trailing comment only", "func idle() {\n\tpark() // not ColorLive(1, nil)\n}", nil},
		{"zero references", `func (q *Core) ColorLive(c int, cq *int) bool { return cq != nil }`, nil},
		{"closure in a method", `func (r *Runtime) steal() { go func() { r.core.ColorLive(1, nil) }() }`, []string{"Runtime.steal"}},
		{"generic receiver", `func (s *set[T]) has() bool { return s.q.ColorLive(1, nil) }`, []string{"set.has"}},
		{"package scope", `var live = (*Core).ColorLive`, []string{"package scope"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, "x.go", "package x\n"+tc.src, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, r := range refsByDecl(fset, []*ast.File{f}, "ColorLive") {
				got = append(got, r.decl)
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
		})
	}
}
