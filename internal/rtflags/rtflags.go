// Package rtflags binds the mely runtime's command-line flags once for
// the server commands (cmd/sws, cmd/sfsd): the flags, the mely.Config
// they build, and the observability side — the debug server and the
// trace-dump bundle written at exit and on SIGQUIT.
package rtflags

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/melyruntime/mely"
	"github.com/melyruntime/mely/internal/obs"
)

// Flags holds the parsed runtime flags: Config is bound to them directly,
// but for the two policies, which New parses from their names.
type Flags struct {
	Config mely.Config

	overload, spillSync  string
	debugAddr, traceDump string
	scrapeEvery          time.Duration
}

// Bind declares the runtime flags on fs.
func Bind(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	c := &f.Config
	fs.IntVar(&c.Cores, "cores", 0, "worker cores (0 = GOMAXPROCS)")
	fs.BoolVar(&c.Pin, "pin", false, "pin workers to CPUs (Linux)")
	fs.IntVar(&c.MaxQueuedEvents, "max-queued", 0, "bound on in-memory queued events (0 = unlimited)")
	fs.IntVar(&c.MaxQueuedPerColor, "max-queued-color", 0, "per-color bound on queued events (0 = unlimited)")
	fs.StringVar(&f.overload, "overload", "reject", "overload policy once a bound is hit: reject|block|spill")
	fs.StringVar(&c.SpillDir, "spill-dir", "", "spill segment directory (empty = private temp dir; used by -overload spill)")
	fs.StringVar(&f.spillSync, "spill-sync", "none", "spill durability policy: none|interval|always")
	fs.BoolVar(&c.SpillRecover, "spill-recover", false, "recover spilled backlogs from -spill-dir at startup and keep them across restarts (needs -overload spill and an explicit -spill-dir)")
	fs.StringVar(&f.debugAddr, "debug-addr", "", "serve /metrics, /debug/trace, /debug/timeseries, /debug/health, /debug/vars and /debug/pprof/* on this side address (empty = off)")
	fs.DurationVar(&f.scrapeEvery, "debug-scrape-interval", 250*time.Millisecond, "cache the rendered /metrics payload this long, so aggressive scrapers share one stats snapshot per window (0 = default 250ms, negative = no caching)")
	fs.StringVar(&f.traceDump, "trace-dump", "", "write the flight-recorder trace (Chrome JSON) to this file at exit and on SIGQUIT, with .health.json and .timeseries.json siblings")
	fs.DurationVar(&c.StallThreshold, "stall-threshold", 0, "flag a handler stuck longer than this: a stall record with the goroutine stack lands in the flight recorder and mely_stalled_cores goes up (0 = watchdog off)")
	fs.DurationVar(&c.ObsInterval, "obs-interval", 0, "sample a runtime-wide stats snapshot into the fixed-memory timeseries ring this often; arms /debug/timeseries, /debug/health, the mely_*_rate gauges, and the anomaly detectors (0 = off)")
	fs.IntVar(&c.ObsHistory, "obs-history", 0, "timeseries ring capacity in samples (0 = default 240)")
	fs.StringVar(&c.IncidentDir, "incident-dir", "", "capture a bounded incident bundle (CPU profile, trace, health, timeseries) into a timestamped directory here on each fresh anomaly (empty = off; needs -obs-interval)")
	fs.DurationVar(&c.IncidentMinGap, "incident-min-gap", 0, "minimum spacing between incident captures (0 = default 30s)")
	return f
}

// New builds the runtime the parsed flags describe, under the given
// scheduling policy, and starts what -debug-addr and -trace-dump ask for
// around it: the debug HTTP server, and the dump bundle — the
// flight-recorder trace with its health-report and timeseries siblings —
// written on SIGQUIT and by stop. The command defers stop, which also
// closes the runtime; cmd prefixes the log lines.
func (f *Flags) New(pol mely.Policy, cmd string) (rt *mely.Runtime, stop func(), err error) {
	cfg := f.Config
	cfg.Policy = pol
	if cfg.OverloadPolicy, err = mely.ParseOverloadPolicy(f.overload); err != nil {
		return nil, nil, err
	}
	if cfg.SpillSync, err = mely.ParseSpillSyncPolicy(f.spillSync); err != nil {
		return nil, nil, err
	}
	if rt, err = mely.New(cfg); err != nil {
		return nil, nil, err
	}
	stop = func() { rt.Close() }
	if f.debugAddr != "" {
		dbg, err := obs.StartDebugServer(f.debugAddr, rt, f.scrapeEvery)
		if err != nil {
			rt.Close()
			return nil, nil, err
		}
		stop = func() { dbg.Close(); rt.Close() }
		fmt.Printf("%s: debug endpoints on http://%s/metrics\n", cmd, dbg.Addr())
	}
	if f.traceDump != "" {
		logf := func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, cmd+": "+format+"\n", args...)
		}
		dumps := []obs.NamedDump{
			{Path: f.traceDump, Dump: rt.DumpTrace},
			{Path: obs.SiblingPath(f.traceDump, "health"), Dump: func(w io.Writer) error {
				_, err := rt.WriteHealth(w)
				return err
			}},
			{Path: obs.SiblingPath(f.traceDump, "timeseries"), Dump: rt.WriteTimeSeries},
		}
		stopSig := obs.DumpOnSIGQUIT(dumps, logf)
		closeAll := stop
		stop = func() {
			if err := obs.DumpBundle(dumps); err != nil {
				logf("flight-recorder dump failed: %v", err)
			}
			stopSig()
			closeAll()
		}
	}
	return rt, stop, nil
}
