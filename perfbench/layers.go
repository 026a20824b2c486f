package main

import "fmt"

// layers accumulates a traced run's per-layer counters over its epochs.
// Each epoch has a fresh runtime, so its counters start at zero and are
// added here whole.
type layers struct {
	// tm: tm.Stats.
	starts, commits, readOnly, conflicts uint64
	// rococotm: tm.Stats with Config.MeasurePhases.
	valNs, extendNs, awaitNs, publishNs, writebackNs uint64
	wbPeak                                           uint64
	// fpga: fpga.Engine.Stats.
	requests, probes, batches, cycleAborts, windowAborts, queuePeak uint64
	modelCycles                                                     uint64
	// The tracer's per-call spans and the clients' per-update accounting.
	read, write, commit, roCommit span
	retryNs, residualNs           int64
	updates                       uint64
	updNs                         int64 // traced update latency, summed
	// wal and mvstore: DurableStats, the timed snapshot calls, and the
	// recovery time of each epoch.
	walAppends, walFlushes, walBytes uint64
	snapshot, snapRead               span
	versions                         []float64
	replay                           []float64
	// Traced throughput, for the tracing overhead.
	measuredS float64
	ops       uint64
}

// addEpoch adds one finished epoch's counters. The clients have joined.
func (l *layers) addEpoch(b *bench, measured float64, ops uint64) {
	st := b.rt.Stats()
	l.starts += st.Starts
	l.commits += st.Commits
	l.readOnly += st.ReadOnly
	l.conflicts += st.Reasons["conflict"]
	l.valNs += st.ValidationNanos
	l.extendNs += st.CommitExtendNanos
	l.awaitNs += st.CommitAwaitNanos
	l.publishNs += st.CommitPublishNanos
	l.writebackNs += st.CommitWritebackNanos
	l.wbPeak = max(l.wbPeak, st.CommitPipelinePeak)

	es := b.rt.Engine().Stats()
	l.requests += es.Requests
	l.probes += es.Probes
	l.batches += es.Batches
	l.cycleAborts += es.CycleAborts
	l.windowAborts += es.WindowAborts
	l.queuePeak = max(l.queuePeak, es.QueuePeak)
	l.modelCycles += es.ModelCycles

	for i := range b.tr.th {
		th := &b.tr.th[i]
		l.read.merge(th.read)
		l.write.merge(th.write)
		l.commit.merge(th.commit)
		l.roCommit.merge(th.roCommit)
	}
	for _, c := range b.cl {
		l.retryNs += c.retryNs
		l.residualNs += c.residualNs
		l.updates += c.updates
		for _, d := range c.upd {
			l.updNs += int64(d)
		}
		l.snapshot.merge(c.snapshot)
		l.snapRead.merge(c.snapRead)
	}

	if ds, ok := b.rt.DurableStats(); ok {
		l.walAppends += ds.WAL.Appends
		l.walFlushes += ds.WAL.Flushes
		l.walBytes += ds.WAL.Bytes
		l.versions = append(l.versions, float64(ds.Store.Versions))
	}
	l.measuredS += measured
	l.ops += ops
}

// traceLine summarizes a traced run: its throughput, how the timed calls
// add up to the mean update latency, and the times only some workloads
// have.
func (l *layers) traceLine() string {
	upd := float64(l.updates)
	return fmt.Sprintf("trace: throughput_ktps=%.3f update_mean_us=%.3f timed_calls_us=%.3f residual_us=%.3f"+
		" ro_commit_ns=%.1f snapshot_ns=%.1f snapshot_read_ns=%.1f replay_s=%.4f",
		float64(l.ops)/l.measuredS/1e3,
		ratio(float64(l.updNs), upd)/1e3,
		ratio(float64(l.updNs-l.residualNs), upd)/1e3,
		ratio(float64(l.residualNs), upd)/1e3,
		l.roCommit.mean(), l.snapshot.mean(), l.snapRead.mean(), median(l.replay))
}

// ratio returns a/b, or 0 when b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics returns the per-layer metrics by name. Times a layer reports
// only on some workloads (read-only commits through tm.Run, snapshot calls,
// WAL replay) are printed by traceLine instead: on the other workloads
// they would read 0 on every run.
func (l *layers) metrics() []namedMetric {
	writes := float64(l.commits - l.readOnly)
	commits := float64(l.commits)
	req := float64(l.requests)
	return []namedMetric{
		{"tm.attempts_per_commit", ratio(float64(l.starts), commits), "ratio"},
		{"tm.conflict_aborts_per_kcommit", 1000 * ratio(float64(l.conflicts), commits), "1/kcommit"},
		{"tm.retry_us_per_update", ratio(float64(l.retryNs), float64(l.updates)) / 1e3, "us"},
		{"rococotm.read_ns", l.read.mean(), "ns"},
		{"rococotm.write_ns", l.write.mean(), "ns"},
		{"rococotm.extend_ns", ratio(float64(l.extendNs), writes), "ns"},
		{"rococotm.commit_ns", l.commit.mean(), "ns"},
		{"rococotm.validate_ns", ratio(float64(l.valNs), req), "ns"},
		{"rococotm.turn_wait_ns", ratio(float64(l.awaitNs), writes), "ns"},
		{"rococotm.publish_ns", ratio(float64(l.publishNs), writes), "ns"},
		{"rococotm.writeback_ns", ratio(float64(l.writebackNs), writes), "ns"},
		{"rococotm.writeback_peak", float64(l.wbPeak), "count"},
		{"fpga.batch_mean", ratio(float64(l.requests+l.probes), float64(l.batches)), "requests"},
		{"fpga.queue_peak", float64(l.queuePeak), "count"},
		{"fpga.cycle_aborts_per_kcommit", 1000 * ratio(float64(l.cycleAborts), writes), "1/kcommit"},
		{"fpga.window_aborts_per_kcommit", 1000 * ratio(float64(l.windowAborts), writes), "1/kcommit"},
		{"fpga.model_cycles_per_request", ratio(float64(l.modelCycles), req), "cycles"},
		{"wal.commits_per_flush", ratio(float64(l.walAppends), float64(l.walFlushes)), "commits"},
		{"wal.bytes_per_commit", ratio(float64(l.walBytes), float64(l.walAppends)), "B"},
		{"mvstore.versions_retained", median(l.versions), "count"},
	}
}
