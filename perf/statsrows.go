package main

import (
	"time"

	"github.com/melyruntime/mely"
)

// statsRows derives the per-layer rows that are counts: Runtime.Stats()
// deltas over a measured span, read from outside the runtime.
func statsRows(m metrics, before, after mely.Stats, ops int64, wall time.Duration) {
	b, a := before.Total(), after.Total()
	d := func(x, y int64) float64 { return float64(y - x) }
	fops := float64(ops)
	events := d(b.Events, a.Events)
	exec := float64(a.ExecTime - b.ExecTime)
	steals := d(b.Steals, a.Steals)
	attempts := d(b.StealAttempts, a.StealAttempts)
	stealTime := float64(a.StealTime - b.StealTime)
	stolenTime := float64(a.StolenTime - b.StolenTime)

	m["mely.events_per_op"] = ratio(events, fops)
	m["mely.parks_per_kop"] = ratio(1e3*d(b.Parks, a.Parks), fops)
	m["mely.backoff_parks_per_kop"] = ratio(1e3*d(b.BackoffParks, a.BackoffParks), fops)
	m["mely.colorqueue_churns_per_op"] = ratio(d(b.ColorQueueChurns, a.ColorQueueChurns), fops)
	m["mely.batched_share"] = ratio(d(b.BatchedEvents, a.BatchedEvents), d(b.PostedHere, a.PostedHere))
	m["mely.worker_busy_share"] = ratio(exec, float64(wall)*float64(len(after.Cores)))
	qd := histDelta(b.QueueDelayHist, a.QueueDelayHist)
	ex := histDelta(b.ExecTimeHist, a.ExecTimeHist)
	m["mely.queue_delay_p99_us"] = us(qd.Quantile(0.99))
	m["mely.queue_delay_mean_us"] = ratio(us(qd.Sum), float64(qd.Count()))
	m["mely.exec_p50_us"] = us(ex.Quantile(0.50))
	m["mely.exec_mean_us"] = ratio(exec/1e3, events)

	m["steal.attempts_per_kop"] = ratio(1e3*attempts, fops)
	m["steal.success_share"] = ratio(steals, attempts)
	m["steal.colors_per_steal"] = ratio(d(b.StolenColors, a.StolenColors), steals)
	m["steal.cost_us"] = ratio(stealTime/1e3, steals)
	m["steal.cost_estimate_us"] = us(after.StealCostEstimate)
	m["steal.stolen_time_share"] = ratio(stolenTime, exec)
	m["steal.efficiency"] = ratio(stolenTime, stealTime)
	m["steal.remote_share"] = ratio(d(b.RemoteSteals, a.RemoteSteals), steals)

	fired := d(b.TimersFired, a.TimersFired)
	m["timer.cancel_share"] = ratio(d(before.TimersCanceled, after.TimersCanceled), fops)
	m["timer.lag_le_1ms_share"] = ratio(d(b.TimerLagHist[0]+b.TimerLagHist[1], a.TimerLagHist[0]+a.TimerLagHist[1]), fired)

	spilled := d(before.SpilledEvents, after.SpilledEvents)
	m["spill.spilled_share"] = ratio(spilled, fops)
	m["spill.bytes_per_event"] = ratio(d(before.SpilledBytes, after.SpilledBytes), spilled)
	m["spill.syncs"] = d(before.SpillSyncs, after.SpillSyncs)
	m["spill.errors"] = d(before.SpillErrors, after.SpillErrors)

	wakeups := d(before.PollWakeups, after.PollWakeups)
	m["netpoll.events_per_wakeup"] = ratio(d(before.PollEvents, after.PollEvents), wakeups)
	m["netpoll.wakeups_per_op"] = ratio(wakeups, fops)
	m["netpoll.write_stalls_per_kop"] = ratio(1e3*d(before.WriteStalls, after.WriteStalls), fops)
	m["netpoll.read_pauses"] = d(before.ReadPauses, after.ReadPauses)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// histDelta is the runtime's sampled histogram over the measured span.
func histDelta(b, a mely.LatencySnapshot) mely.LatencySnapshot {
	var out mely.LatencySnapshot
	for i := range out.Buckets {
		out.Buckets[i] = a.Buckets[i] - b.Buckets[i]
	}
	out.Sum = a.Sum - b.Sum
	return out
}
