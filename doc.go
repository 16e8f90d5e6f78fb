// Package mely is a multicore event-driven runtime based on event
// coloring, reproducing "Efficient Workstealing for Multicore
// Event-Driven Systems" (Gaud, Genevès, Lachaize, Lepers, Mottet,
// Muller, Quéma — ICDCS 2010) and growing it into a production API.
//
// # Programming model
//
// Applications are sets of short, non-blocking event handlers. Each
// posted event carries a 64-bit color: events of the same color execute
// serially (mutual exclusion without locks), events of different colors
// may run on different cores concurrently. A typical server colors each
// connection with its id — the color space is wide enough to never
// recycle — so independent clients are served in parallel, while
// shared-state handlers reuse one color to serialize.
//
//	rt, err := mely.New(mely.Config{})
//	echo := mely.RegisterTyped(rt, "echo", func(ctx *mely.TypedCtx[string]) {
//		fmt.Println(ctx.Data()) // statically a string
//	})
//	go rt.Run(ctx)                      // Start, then drain+stop when ctx ends
//	echo.Post(mely.Color(42), "hello")  // one event
//	rt.PostBatch([]mely.BatchEvent{     // a batch: one short lock hold per core
//		echo.Event(7, "a"), echo.Event(8, "b"),
//	})
//
// # The v1 API
//
//   - Registration: Register takes an untyped func(*Ctx); RegisterTyped
//     layers a generically typed handler over it whose TypedCtx exposes
//     the payload without a type assertion.
//   - Posting: Post delivers one event to the core owning its color.
//     PostBatch amortizes delivery — it groups a caller batch by hash
//     core, and while every color is at home it hands each group of
//     several events over whole: spliced onto the core's arrivals in
//     O(1) per event under a single lock acquisition with a single
//     wakeup, and filed by the owner at its next pop. Any other group is
//     posted one event at a time, as Post does. This is how pumps and
//     fan-out stages should post (see BenchmarkRuntimePostBatch for the
//     measured gap).
//     Both fail with ErrStopped after shutdown.
//   - Lifecycle: Start/Drain/Stop remain for manual control; Run(ctx)
//     packages the common daemon shape (start, block until the context
//     ends, drain, stop) and Close is the idempotent io.Closer-shaped
//     immediate shutdown.
//
// # Scheduling
//
// One worker goroutine per configured core (thread-locked, and pinned
// on Linux when Config.Pin is set) drains a per-core queue of colored
// events. A sharded, lock-striped color table maps each live color to
// its owning core — colors hash onto cores with a 64-bit mix, and
// ownership moves only while a steal holds the color away from home: the
// lease ends, and the color is homed on its hash core again, as soon as
// the color drains on the thief — nothing of it queued, nothing running
// — so the table holds only the stolen colors still at work. Load is
// balanced by workstealing: an idle core inspects victims and migrates a
// whole color. The stealing policy is the paper's contribution and is
// selectable via Config.Policy:
//
//   - PolicyMelyWS (default): Mely's per-color queues with the
//     locality-aware, time-left and penalty-aware heuristics;
//   - PolicyMely / PolicyMelyBaseWS / PolicyMelyTimeLeftWS /
//     PolicyMelyPenaltyWS / PolicyMelyLocalityWS: ablations;
//   - PolicyLibasync / PolicyLibasyncWS: the Libasync-smp baseline
//     (single FIFO per core, naive workstealing) for comparison.
//
// Handler execution times are profiled online (an EWMA per handler, the
// paper's section VII "future work" mode) or pinned with the
// WithCostEstimate annotation; the time-left heuristic uses them to
// steal only colors whose pending work exceeds the cost of stealing.
// WithPenalty sets the ws_penalty annotation that makes handlers with
// large, long-lived data sets unattractive to thieves.
//
// # Batch stealing and steal throttling
//
// There is one steal transaction (docs/architecture.md "The steal
// transaction"), shared with the simulator through internal/equeue and
// internal/policy and the same on both queue layouts: screen the victim,
// lock it, can_be_stolen, detach a set of colors, publish their leases,
// lock ourselves, adopt the set. How many colors the set may hold is its
// budget. The paper's protocol migrates exactly one color per successful
// attempt — budget 1; this runtime's budget is up to half the victim's
// stealable colors — worthy ones first under the time-left heuristic —
// capped at 8 (policy.DefaultMaxStealColors), all inside the single
// victim-lock critical section, the color leases published in one pass
// over the color table's stripes. The fixed steal costs (victim lock
// transfer, can_be_stolen, migration setup) are then paid once per
// batch instead of once per color, the steal-side mirror of PostBatch.
// The paper's single-color protocol is the simulator's (internal/sim),
// which regenerates its tables. Stats exposes the accounting:
// StolenColors, the per-steal batch-size histogram (StealBatchHist), and
// the attempt/success counters.
//
// # Timers
//
// PostAfter, PostAt, and PostEvery arm timers whose expiry is a normal
// event post: after the deadline the handler is posted with the given
// color and data, so the expiry callback is serialized with every other
// event of that color — idle-connection reapers, retries, and session
// expiry read per-color state with no user locking, ever. This replaces
// the time.AfterFunc+Post workaround, which burned a goroutine and an
// allocation per timer and delivered the post outside the runtime's
// scheduling (see CHANGES.md for migration guidance).
//
// Timers live on per-core hierarchical timing wheels (internal/
// timerwheel): arming, Cancel, and Reset are O(1); expiry is a batch
// harvest folded into the worker loop, and a parked worker sleeps only
// until min(park timeout, its wheel's next deadline). A fixed 1ms tick
// is the granularity — timers fire on the first tick at
// or after their deadline; the hierarchy is four levels of 64 slots,
// and deadlines beyond its horizon cascade, so any duration is legal.
//
// Timers are color-serialized, not color-affine: an entry is armed on
// the wheel of the core that owns its color and fires from that wheel —
// a steal or a lease's end moves the color's queue, never its timers.
// A firing is delivered through the same ownership lease protocol as a
// Post, to the color's owner at that moment, so the serialization
// guarantee holds no matter where the entry sits.
// The Timer handle is race-safe: exactly one of Cancel-returning-true
// and the firing happens (a periodic timer canceled mid-firing still
// delivers the in-flight occurrence, never another). Stats reports
// TimersFired, TimersCanceled, the armed count (TimersPending), and a
// firing-lag histogram (TimerLagHist).
//
// # Network backends
//
// internal/netpoll turns socket readiness into colored events, the
// role the paper's runtime-owned Epoll handler plays. On Linux the
// primary backend is a raw-epoll reactor (internal/epoller): one
// reactor goroutine per poller shard (netpoll.Config.PollerShards,
// default NumCPU) runs an edge-triggered EpollWait loop, harvests
// readiness in batches, and delivers each batch through PostBatch —
// the poll batch amortizes the syscall, the post batch amortizes
// queue delivery. Accept readiness posts under the accept color and
// read readiness under the connection's color, so handler code is
// scheduled and serialized exactly as if the events came from
// anywhere else, and connection count never drives goroutine count:
// ten thousand idle connections cost O(shards) goroutines. Writes go
// through Conn.Send, which gives real backpressure — bytes the kernel
// buffer rejects are queued per connection (bounded by a 4 MiB
// budget) and drained on EPOLLOUT under the
// connection's color, with WriteStalls counting the stalls. Conn.Sendv
// is Send for several buffers in one writev(2), which is how sws
// answers a pipelined burst with one system call. On other
// platforms (or with Backend: BackendPumps) the portable pump backend
// substitutes one goroutine per listener and per connection; event
// semantics are identical — the sws parity suite asserts equal
// handler-event traces — only the scaling differs. Each backend reports
// what it sees as a call on the runtime (NotePollWakeup, NoteWriteStall,
// NoteReadPause), and the runtime keeps the counts, so Stats shows the
// harvest efficiency as PollWakeups, PollEvents, and PollBatchHist, and
// no count drops when a server closes.
//
// # Overload control: bounded queues and disk spill
//
// Unbounded event queues turn a burst, a hot PostEvery, or one slow
// handler into unbounded memory growth. Config.MaxQueuedEvents bounds
// the runtime-wide in-memory queue depth and Config.MaxQueuedPerColor
// bounds one color's share; with both zero (the default) nothing
// changes and nothing is paid — the admission layer is not even
// constructed. Once a bound is hit, Config.OverloadPolicy decides:
//
//	policy          external Post            handler/timer posts
//	--------------  -----------------------  ----------------------
//	OverloadReject  ErrOverloaded            admitted (never fail)
//	OverloadBlock   waits (ctx-cancelable)   admitted (never block)
//	OverloadSpill   tail spills to disk      tail spills to disk
//
// Reject (the default) sheds at the edge: external posts fail with
// ErrOverloaded (test with errors.Is) while handler continuations and
// timer firings always land — failing those would wedge the pipeline
// the bound is protecting. Block turns posters into backpressure:
// Post waits for queue space, PostContext bounds the wait with a
// context, and runtime stop releases every waiter with ErrStopped.
//
// Spill is the graceful-degradation mode, in the lineage of segmented
// disk-backed queues like timeq: when a color saturates, its queue
// TAIL moves to mmap-backed, append-only segment files under
// Config.SpillDir (internal/spillq — batch appends, whole-segment
// reclaim, a versioned header and a CRC per record; the byte layout is
// specified in docs/spillq-format.md), while the in-memory head keeps
// executing. Every further post of that color goes to the tail until
// the color drains below its low-water mark and the backlog reloads in
// strict FIFO order — so per-color ordering holds across the disk
// boundary and memory stays at the bound no matter how deep the
// backlog runs. Spilled colors stay visible to workstealing (a thief
// takes what is queued in memory) and a stolen color's disk tail
// follows it to the thief, because reloads deliver through the same
// ownership lease as any post. Payloads must be
// self-contained values ([]byte, string, integers, bool, float64,
// nil); events with pointerful payloads fall back to in-memory
// delivery and count in SpillErrors.
//
// The spill store can also be a durability boundary. Config.SpillSync
// picks when appended records reach stable storage (SpillSyncNone:
// only at segment seal; SpillSyncInterval: at most once per 100 ms;
// SpillSyncAlways: every append batch, with failed batches rolled
// back), and Config.SpillRecover turns startup
// from delete-orphans into crash recovery: New scans SpillDir,
// truncates torn tails at the last CRC-valid record, reloads intact
// backlogs into each owning color's FIFO, and Stop keeps unconsumed
// segments for the next run. Recovery needs OverloadSpill, an explicit
// SpillDir, and the same handler-registration order across runs.
// Without SpillRecover the v1 contract holds: crash orphans are
// deleted at startup and segments at Stop.
//
// The edge cooperates instead of being policed: netpoll checks
// Runtime.Saturated and pauses a saturated connection's read readiness
// (resuming on drain, counted in ReadPauses), pushing overload into
// the peer's TCP window; its own posts ride PostEdge/PostBatchEdge,
// which bypass Reject and Block precisely because the pause is their
// backpressure. Stats exposes the whole story: the QueuedEvents and
// SpilledNow gauges, SpilledEvents/ReloadedEvents traffic,
// RejectedPosts, BlockedPosts, SpillErrors, the durability counters
// SpillSyncs/RecoveredEvents/TornRecords, and the per-color
// spill-depth histogram SpillDepthHist (its bucket bounds, like those of
// StealBatchHist, TimerLagHist and PollBatchHist, are tabled in
// docs/observability.md "Fixed-bucket histograms").
//
// Idle workers. A worker is a plain goroutine: one that finds no local
// work and nothing to steal parks — it sleeps on a one-token wake
// channel for at most the park duration, and no longer than its wheel's
// earliest deadline. A post to its core, a timer armed or reset ahead of
// that deadline and Stop all wake it at once: the waker publishes its work,
// then drops a token without blocking. A token left for a worker that
// was awake makes its next park return immediately to re-scan, so no
// wake-up is lost. The wake-up is a Go run-queue insert unless
// Config.Pin locked the worker to an OS thread, in which case it is a
// thread hand-off (~12µs against ~1µs, BenchmarkWakeLatency). Nothing
// wakes a worker for work queued on another core, so parks are also the
// steal-probe interval, and they back off: the first fruitless round
// parks for 10µs, each further one doubles it up to 500µs, and any
// success resets the streak. This throttles the steal storm that forms
// when many cores go idle together and hammer the same few victim locks;
// BackoffParks counts the shortened parks.
//
// The hot path. Every event comes in the same way — validate the handler,
// admit, stamp, then deliver to the color's owner or spill (Runtime.post;
// PostBatch, timer firings and spill reloads are built from the same
// steps) — and posters differ only in where the stamp draws its
// one-in-ObsSampleRate sample tick and its span id: a handler from
// counters its worker owns, a poster outside one from the runtime-wide
// sequences, one atomic each per Post or per PostBatch. An event that a
// handler posts as a continuation of its own color therefore writes, from
// post to completion, no word another core writes: events recycle through
// the worker's free stack, a handler's shared profile is fed the mean of
// every 16 executions, the running event hands its pending count — what
// Drain waits on — to the continuation, and while nothing else was
// delivered to the color not even the core's spinlock is taken (on the
// Mely layout the worker detaches the running color's batch when it pops
// and works it, with the continuations appended meanwhile, as a private
// run of at most 10 events, the paper's batch threshold, while other
// work is queued). An execution reads the monotonic clock twice — once
// straight off the run — and profile, stall stamp, latency sample and
// flight recorder all use those readings. docs/architecture.md has the way in step by step, the
// shared writes per posting path, and why Drain stays exact and the
// private run keeps per-color order; BenchmarkChainTwoCores is the
// two-second reading of this path.
//
// The simulated counterpart of this runtime (internal/sim) executes the
// same queue structures and policies on a modeled 8-core machine and
// regenerates every table and figure of the paper: see cmd/melybench
// and docs/measurement.md, which says how a table is regenerated and
// how a scenario is written. (The simulator keeps the paper's color%ncores
// placement; the runtime's default placement is the 64-bit mix.)
// A one-page map of every layer — public API, scheduling core, spill
// and timer subsystems, netpoll backends, servers, and the scenario
// harness — is in docs/architecture.md.
package mely
