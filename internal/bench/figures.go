package bench

import (
	"github.com/melyruntime/mely/internal/compare"
	"github.com/melyruntime/mely/internal/policy"
	"github.com/melyruntime/mely/internal/scenario"
	"github.com/melyruntime/mely/internal/sfsmodel"
	"github.com/melyruntime/mely/internal/sim"
	"github.com/melyruntime/mely/internal/swsmodel"
)

// clientSweep is the x-axis of Figures 4 and 7.
func clientSweep(o scenario.Options) []int {
	if o.Quick {
		return []int{400, 1200, 2000}
	}
	return []int{200, 400, 600, 800, 1000, 1200, 1400, 1600, 1800, 2000}
}

func measureSFS(o scenario.Options, pol policy.Config) (float64, error) {
	eng, err := sfsmodel.Build(o.Topology, pol, o.Params, o.Seed, sfsmodel.Spec{})
	if err != nil {
		return 0, err
	}
	warm, win := o.Windows(100_000_000, 400_000_000)
	if o.Quick {
		// SFS pipelines need a longer fill than the default quick
		// scaling provides.
		warm, win = 50_000_000, 150_000_000
	}
	return sfsmodel.MBPerSecond(sim.Measure(eng, warm, win)), nil
}

func measureSWS(o scenario.Options, pol policy.Config, clients int, ncopy bool) (float64, error) {
	eng, err := swsmodel.Build(o.Topology, pol, o.Params, o.Seed,
		swsmodel.Spec{Clients: clients, NCopy: ncopy})
	if err != nil {
		return 0, err
	}
	warm, win := o.Windows(50_000_000, paperWindow)
	if o.Quick {
		// Keep several injector waves inside the window.
		warm, win = 30_000_000, 90_000_000
	}
	return swsmodel.KRequestsPerSecond(sim.Measure(eng, warm, win)), nil
}

// fig3 reproduces Figure 3: SFS throughput with and without the
// Libasync-smp workstealing (paper: ~85 vs ~115 MB/s, +35%).
func fig3(opt scenario.Options) (*Report, error) {
	r := &Report{
		ID:      "Figure 3",
		Title:   "SFS file server, Libasync-smp with and without workstealing",
		Columns: []string{"Configuration", "Throughput (MB/s)", "paper"},
	}
	paper := map[string]string{"Libasync-smp": "~85", "Libasync-smp - WS": "~115"}
	for _, pol := range []policy.Config{policy.Libasync(), policy.LibasyncWS()} {
		mb, err := measureSFS(opt, pol)
		if err != nil {
			return nil, err
		}
		r.AddRow(pol.Label(), f1(mb), paper[pol.Label()])
	}
	return r, nil
}

// fig4 reproduces Figure 4: SWS throughput against the number of
// clients, Libasync-smp with and without workstealing.
func fig4(opt scenario.Options) (*Report, error) {
	r := &Report{
		ID:      "Figure 4",
		Title:   "SWS Web server vs clients (KRequests/s)",
		Columns: []string{"Clients", "Libasync-smp", "Libasync-smp - WS"},
	}
	for _, n := range clientSweep(opt) {
		la, err := measureSWS(opt, policy.Libasync(), n, false)
		if err != nil {
			return nil, err
		}
		laWS, err := measureSWS(opt, policy.LibasyncWS(), n, false)
		if err != nil {
			return nil, err
		}
		r.AddRow(f0(float64(n)), f1(la), f1(laWS))
	}
	r.AddNote("paper plateau: ~150 KReq/s without WS, down to ~100-110 with WS (up to -33%%)")
	return r, nil
}

// fig7 reproduces Figure 7: SWS under every runtime, plus the µserver
// N-copy and Apache-like baselines.
func fig7(opt scenario.Options) (*Report, error) {
	r := &Report{
		ID:    "Figure 7",
		Title: "SWS Web server across runtimes (KRequests/s)",
		Columns: []string{"Clients", "Mely - WS", "userver (N-copy)",
			"Libasync-smp", "Libasync-smp - WS", "Apache (threaded)", "Mely (no WS)"},
	}
	threaded := compare.DefaultThreadedSpec()
	threaded.Cores = opt.Topology.NumCores()
	threaded.CyclesPerSecond = opt.Params.CyclesPerSecond
	for _, n := range clientSweep(opt) {
		melyWS, err := measureSWS(opt, policy.MelyWS(), n, false)
		if err != nil {
			return nil, err
		}
		ncopy, err := measureSWS(opt, policy.Mely(), n, true)
		if err != nil {
			return nil, err
		}
		la, err := measureSWS(opt, policy.Libasync(), n, false)
		if err != nil {
			return nil, err
		}
		laWS, err := measureSWS(opt, policy.LibasyncWS(), n, false)
		if err != nil {
			return nil, err
		}
		apache, err := threaded.Throughput(n)
		if err != nil {
			return nil, err
		}
		mely, err := measureSWS(opt, policy.Mely(), n, false)
		if err != nil {
			return nil, err
		}
		r.AddRow(f0(float64(n)), f1(melyWS), f1(ncopy), f1(la), f1(laWS), f1(apache/1000), f1(mely))
	}
	r.AddNote("paper plateau ordering: Mely-WS (~190) > userver (~170) > Libasync-smp (~150) > Libasync-smp-WS (~100-110) > Apache")
	r.AddNote("Mely no-WS runs 7-20%% below Libasync-smp no-WS (section V-C1), reproduced in the last column")
	return r, nil
}

// fig8 reproduces Figure 8: SFS across runtimes.
func fig8(opt scenario.Options) (*Report, error) {
	r := &Report{
		ID:      "Figure 8",
		Title:   "SFS file server across runtimes",
		Columns: []string{"Configuration", "Throughput (MB/s)", "paper"},
	}
	paper := map[string]string{
		"Libasync-smp":      "~85",
		"Libasync-smp - WS": "~115",
		"Mely - WS":         "~115 (similar to Libasync-smp - WS)",
	}
	for _, pol := range []policy.Config{policy.Libasync(), policy.LibasyncWS(), policy.MelyWS()} {
		mb, err := measureSFS(opt, pol)
		if err != nil {
			return nil, err
		}
		r.AddRow(pol.Label(), f1(mb), paper[pol.Label()])
	}
	return r, nil
}
