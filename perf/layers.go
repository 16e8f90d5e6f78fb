package main

import (
	"context"
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/melyruntime/mely"
	"github.com/melyruntime/mely/internal/equeue"
	"github.com/melyruntime/mely/internal/netpoll"
	"github.com/melyruntime/mely/internal/obs"
	"github.com/melyruntime/mely/internal/profile"
	"github.com/melyruntime/mely/internal/sfs"
	"github.com/melyruntime/mely/internal/spillq"
	"github.com/melyruntime/mely/internal/spinlock"
	"github.com/melyruntime/mely/internal/timerwheel"
)

// The isolated rows call each internal package's exported API in a
// loop for a fixed time and report the cost per call: the layer prices
// that the live workloads' end-to-end numbers are made of.

// timed runs body (a batch of n calls) until dur has passed and returns
// the nanoseconds per call.
func timed(dur time.Duration, n int, body func()) float64 {
	var calls int64
	start := time.Now()
	for {
		body()
		calls += int64(n)
		if el := time.Since(start); el >= dur {
			return float64(el.Nanoseconds()) / float64(calls)
		}
	}
}

// stopwatch accumulates only the timed sections of a loop whose set-up
// and restore steps must not count.
type stopwatch struct {
	ns    int64
	calls int64
}

func (s *stopwatch) time(n int, body func()) {
	t0 := time.Now()
	body()
	s.ns += time.Since(t0).Nanoseconds()
	s.calls += int64(n)
}

func (s *stopwatch) perCall() float64 { return ratio(float64(s.ns), float64(s.calls)) }

const layerBatch = 64

var layerSink uint64

func isolatedRows(m metrics, dur time.Duration) error {
	colors := make([]equeue.Color, layerBatch)
	for i := range colors {
		colors[i] = equeue.Color(1000 + i*7919)
	}
	events := make([]equeue.Event, layerBatch)

	// equeue: the per-core queue's push/pop of short-lived colours (the
	// ColorQueue link/unlink churn of section V-C1) and the list layout.
	q := equeue.NewCoreQueue(2000)
	m["equeue.push_pop_ns"] = timed(dur, layerBatch, func() {
		for i := range events {
			events[i] = equeue.Event{Color: colors[i], Cost: 100}
			q.Push(q.NewColorQueue(colors[i]), &events[i])
		}
		for range events {
			if _, emptied := q.PopNext(); emptied != nil {
				q.ReleaseColorQueue(emptied)
			}
		}
	})
	lq := equeue.NewListQueue()
	m["equeue.list_push_pop_ns"] = timed(dur, layerBatch, func() {
		for i := range events {
			events[i] = equeue.Event{Color: colors[i], Cost: 100}
			lq.PushBack(&events[i])
		}
		for range events {
			lq.PopFront()
		}
	})
	table := equeue.NewColorTable(cores)
	fresh := q.NewColorQueue(colors[0])
	m["equeue.colortable_deliver_ns"] = timed(dur, layerBatch, func() {
		for _, c := range colors {
			cq, _, _ := table.DeliverHome(c, fresh)
			table.ClearQueue(c, cq)
		}
	})
	m["equeue.steal_set_ns_per_color"] = stealSetRow(dur, colors)

	// spinlock: the core lock, free and fought over by two goroutines.
	var lock spinlock.Lock
	m["spinlock.lock_unlock_ns"] = timed(dur, layerBatch, func() {
		for i := 0; i < layerBatch; i++ {
			lock.Lock()
			lock.Unlock()
		}
	})
	m["spinlock.contended_ns"] = contendedRow(dur)

	// timerwheel: arm+cancel, and expiry harvest per entry.
	wheel := timerwheel.New(time.Millisecond, timerwheel.DefaultLevels)
	far := int64(30 * time.Second)
	m["timerwheel.add_cancel_ns"] = timed(dur, layerBatch, func() {
		for i := 0; i < layerBatch; i++ {
			e := timerwheel.NewEntry(colors[i], 0, nil, far, 0)
			wheel.Add(e)
			e.Cancel()
		}
	})
	m["timerwheel.advance_ns_per_entry"] = advanceRow(dur, colors)

	// obs and profile: what every executed event pays for observability.
	ring := obs.NewRing(4096)
	var hist obs.Hist
	prof := profile.NewTable(1).Handler(0)
	var n int64
	m["obs.ring_append_ns"] = timed(dur, layerBatch, func() {
		for i := 0; i < layerBatch; i++ {
			n++
			ring.AppendFlow(obs.KindExec, n, 100, uint64(n), 1, uint64(n), uint64(n), 0)
		}
	})
	m["obs.hist_observe_ns"] = timed(dur, layerBatch, func() {
		for i := 0; i < layerBatch; i++ {
			n++
			hist.Observe(n & 0xffff)
		}
	})
	m["profile.observe_ns"] = timed(dur, layerBatch, func() {
		for i := 0; i < layerBatch; i++ {
			n++
			prof.Observe(500 + n&0xff)
		}
	})

	// sfs: the crypto a 64 KiB chunk costs on each side.
	if err := sfsRows(m, dur); err != nil {
		return err
	}
	if err := spillqRows(m, dur); err != nil {
		return err
	}
	return runtimeRows(m, dur)
}

// stealSetRow prices the steal transaction's queue work: detach up to 8
// worthy colours from a victim and adopt them on the thief. When the
// victim runs dry the two swap roles.
func stealSetRow(dur time.Duration, colors []equeue.Color) float64 {
	victim, thief := equeue.NewCoreQueue(2000), equeue.NewCoreQueue(2000)
	events := make([]equeue.Event, 4*len(colors))
	cqs := make([]*equeue.ColorQueue, len(colors))
	for i := range events {
		k := i % len(colors)
		if cqs[k] == nil {
			cqs[k] = victim.NewColorQueue(colors[k])
		}
		events[i] = equeue.Event{Color: colors[k], Cost: 10_000}
		victim.Push(cqs[k], &events[i])
	}
	buf := make([]*equeue.ColorQueue, 0, 8)
	var sw stopwatch
	start := time.Now()
	for time.Since(start) < dur {
		var n int
		sw.time(0, func() {
			set := victim.StealWorthySet(0, false, cap(buf), buf)
			for _, cq := range set {
				cq.MarkStolen()
				thief.Adopt(cq)
			}
			n = len(set)
		})
		sw.calls += int64(n)
		if n == 0 {
			victim, thief = thief, victim
		}
	}
	return sw.perCall()
}

func contendedRow(dur time.Duration) float64 {
	var lock spinlock.Lock
	var total [2]int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var n int64
			for time.Since(start) < dur {
				for i := 0; i < layerBatch; i++ {
					lock.Lock()
					layerSink++
					lock.Unlock()
				}
				n += layerBatch
			}
			total[g] = n
		}(g)
	}
	wg.Wait()
	// Mean time one goroutine spends per acquisition while the other
	// competes for the same lock.
	return 2 * float64(time.Since(start).Nanoseconds()) / float64(total[0]+total[1])
}

func advanceRow(dur time.Duration, colors []equeue.Color) float64 {
	wheel := timerwheel.New(time.Millisecond, timerwheel.DefaultLevels)
	tick := int64(time.Millisecond)
	buf := make([]*timerwheel.Entry, 0, 4096)
	var sw stopwatch
	var now int64
	start := time.Now()
	for time.Since(start) < dur {
		for i := 0; i < 4096; i++ {
			wheel.Add(timerwheel.NewEntry(colors[i%len(colors)], 0, nil, now+tick+int64(i%16)*tick, 0))
		}
		sw.time(4096, func() {
			for step := 0; step < 17; step++ {
				now += tick
				buf = wheel.Advance(now, buf[:0])
				for _, e := range buf {
					e.FinishFire()
				}
			}
		})
	}
	return sw.perCall()
}

func sfsRows(m metrics, dur time.Duration) error {
	keys := sfs.DeriveKeys([]byte("perf"))
	chunk := make([]byte, sfsChunkBytes)
	var nonce [16]byte
	var frame []byte
	var err error
	m["sfs.seal_us_per_chunk"] = timed(dur, 1, func() {
		nonce[0]++
		if f, e := sfs.Seal(&keys, 1, 0, nonce, chunk); e != nil {
			err = e
		} else {
			frame = f
		}
	}) / 1e3
	if err != nil {
		return err
	}
	m["sfs.open_us_per_chunk"] = timed(dur, 1, func() {
		if _, e := sfs.Open(&keys, frame[4:]); e != nil {
			err = e
		}
	}) / 1e3
	return err
}

func spillqRows(m metrics, dur time.Duration) error {
	dir, err := os.MkdirTemp("", "perf-spillq-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := spillq.Open(dir, spillq.Options{})
	if err != nil {
		return err
	}
	defer store.Close()
	rec := []spillq.Record{{Handler: 1, Color: 7, Cost: 100, Tag: 1, Payload: make([]byte, 8)}}
	buf := make([]spillq.Record, 0, 256)
	var appendSW, reloadSW stopwatch
	start := time.Now()
	for time.Since(start) < 2*dur && err == nil {
		appendSW.time(4096, func() {
			for i := 0; i < 4096 && err == nil; i++ {
				err = store.Append(7, rec)
			}
		})
		reloadSW.time(4096, func() {
			for got := 0; got < 4096 && err == nil; got += len(buf) {
				buf, err = store.Reload(7, 256, buf[:0])
				if len(buf) == 0 {
					break
				}
			}
		})
	}
	m["spillq.append_ns"], m["spillq.reload_ns"] = appendSW.perCall(), reloadSW.perCall()
	return err
}

// runtimeRows prices the public posting and timer calls on a live
// 2-core runtime with a no-op handler: only the calls are timed, the
// drain between batches is not.
func runtimeRows(m metrics, dur time.Duration) error {
	rt, err := mely.New(mely.Config{Cores: cores})
	if err != nil {
		return err
	}
	defer rt.Stop()
	h := rt.Register("noop", func(*mely.Ctx) {})
	if err := rt.Start(); err != nil {
		return err
	}
	batch := make([]mely.BatchEvent, chunkSize)
	for i := range batch {
		batch[i] = mely.BatchEvent{Handler: h, Color: mely.Color(100 + i*7919)}
	}
	var post, postBatch, arm, cancel stopwatch
	timers := make([]*mely.Timer, 1024)
	start := time.Now()
	for time.Since(start) < 3*dur && err == nil {
		post.time(len(batch), func() {
			for _, b := range batch {
				if e := rt.Post(b.Handler, b.Color, nil); e != nil {
					err = e
				}
			}
		})
		_ = rt.Drain(context.Background()) // a running runtime drains; Stop is deferred
		postBatch.time(len(batch), func() {
			if e := rt.PostBatch(batch); e != nil {
				err = e
			}
		})
		_ = rt.Drain(context.Background())
		arm.time(len(timers), func() {
			for i := range timers {
				t, e := rt.PostAfter(h, batch[i%len(batch)].Color, 30*time.Second, nil)
				if e != nil {
					err = e
					return
				}
				timers[i] = t
			}
		})
		if err != nil {
			break
		}
		cancel.time(len(timers), func() {
			for _, t := range timers {
				t.Cancel()
			}
		})
	}
	m["mely.post_ns"], m["mely.postbatch_ns_per_event"] = post.perCall(), postBatch.perCall()
	m["timer.arm_ns"], m["timer.cancel_ns"] = arm.perCall(), cancel.perCall()
	return err
}

// echoRTT is the closed-loop round trip of size-byte messages from two
// clients to addr: the median in µs, and the number of round trips.
func echoRTT(addr string, size int, dur time.Duration) (float64, int, error) {
	var mu sync.Mutex
	var all []int64
	var firstErr error
	var wg sync.WaitGroup
	for g := 0; g < netClients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lat, err := echoClient(addr, size, dur)
			mu.Lock()
			defer mu.Unlock()
			all = append(all, lat...)
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}()
	}
	wg.Wait()
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return quantileUS(all, 0.5), len(all), firstErr
}

func echoClient(addr string, size int, dur time.Duration) ([]int64, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	msg := make([]byte, size)
	lat := make([]int64, 0, 1<<16)
	start := time.Now()
	for time.Since(start) < dur {
		t0 := time.Now()
		if _, err := conn.Write(msg); err != nil {
			return lat, err
		}
		if _, err := io.ReadFull(conn, msg); err != nil {
			return lat, err
		}
		if len(lat) < cap(lat) {
			lat = append(lat, time.Since(t0).Nanoseconds())
		}
	}
	return lat, nil
}

// echoRows measures the two floors under sws_closed: a goroutine-per-
// connection echo with no runtime at all, and netpoll with one handler
// that Sends the bytes back. For the budget line it also returns the
// time the runtime's own histograms attribute to one echo round trip.
func echoRows(m metrics, dur time.Duration) (runtimeUS float64, err error) {
	const size = swsFileBytes
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				_, _ = io.Copy(conn, conn) // ends when the client closes
			}()
		}
	}()
	floor, _, err := echoRTT(ln.Addr().String(), size, dur)
	_ = ln.Close() // only stops the accept loop
	wg.Wait()
	if err != nil {
		return 0, err
	}
	m["floor.tcp_echo_rtt_us"] = floor

	rt, err := mely.New(mely.Config{Cores: cores})
	if err != nil {
		return 0, err
	}
	defer rt.Stop()
	if err := rt.Start(); err != nil {
		return 0, err
	}
	noop := rt.Register("echo.conn", func(*mely.Ctx) {})
	echo := rt.Register("echo.data", func(ctx *mely.Ctx) {
		msg := ctx.Data().(*netpoll.Message)
		if err := msg.Conn.Send(msg.Data); err != nil {
			msg.Conn.Shutdown()
		}
		msg.Release()
	})
	ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	srv, err := netpoll.Serve(ln, netpoll.Config{Runtime: rt, OnAccept: noop, AcceptColor: 1, OnData: echo, OnClose: noop})
	if err != nil {
		_ = ln.Close() // Serve's error is the one to report
		return 0, err
	}
	defer srv.Close()
	before := rt.Stats()
	rtt, trips, err := echoRTT(srv.Addr().String(), size, dur)
	if err != nil {
		return 0, err
	}
	m["netpoll.echo_rtt_us"] = rtt
	return runtimeUSPerOp(before, rt.Stats(), int64(trips)), nil
}

// runtimeUSPerOp is the time the runtime's own accounting attributes to
// one op between two snapshots: its events' mean sampled queue delay
// plus their mean execution time, times the events per op.
func runtimeUSPerOp(before, after mely.Stats, ops int64) float64 {
	b, a := before.Total(), after.Total()
	qd := histDelta(b.QueueDelayHist, a.QueueDelayHist)
	perEvent := ratio(us(qd.Sum), float64(qd.Count())) + ratio(us(a.ExecTime-b.ExecTime), float64(a.Events-b.Events))
	return perEvent * ratio(float64(a.Events-b.Events), float64(ops))
}
