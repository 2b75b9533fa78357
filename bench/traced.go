package main

// perLayer adds the traced half's metrics to m (which already holds the
// ladder's): the deltas of dtxd's /metrics registry and of /proc over the
// traced window, the client-side counts, and the two cross-checks —
// trace.attributed_ratio and trace.overhead_ratio. untraced is the reference
// half measured just before on an unarmed cluster; growth is drained
// document bytes over generated document bytes.
func perLayer(m map[string]metric, wl *workload, untraced, w *window, clients []*client, growth float64) {
	commits := float64(max(w.commits(), 1))
	writes := float64(max(len(w.lat[1]), 1))
	s0, s1 := w.scrape0, w.scrape1

	perCommit := func(family string) metric {
		return metric{Value: s1.delta(s0, family) / commits, Unit: "count", n: w.commits()}
	}
	// quantileMs reads a latency histogram's delta; a family nothing was
	// observed on (no lock ever waited) reports 0.
	quantileMs := func(family string, q float64) metric {
		v, n := s1.quantile(s0, family, q)
		if n == 0 {
			v = 0
		}
		return metric{Value: v * 1000, Unit: "ms", n: int(n)}
	}

	m["client.attempts_per_commit"] = metric{Value: float64(w.attempts) / commits, Unit: "count", n: w.attempted}
	m["client.read_lat_p99_ms"] = metric{Value: percentile(w.lat[0], 0.99), Unit: "ms", n: len(w.lat[0])}
	m["client.write_lat_p99_ms"] = metric{Value: percentile(w.lat[1], 0.99), Unit: "ms", n: len(w.lat[1])}

	m["sched.lock_wait_ms_p50"] = quantileMs("dtx_lock_wait_seconds", 0.5)
	m["sched.lock_wait_ms_p99"] = quantileMs("dtx_lock_wait_seconds", 0.99)
	m["sched.op_exec_ms_p50"] = quantileMs("dtx_op_exec_seconds", 0.5)
	m["sched.op_exec_ms_p99"] = quantileMs("dtx_op_exec_seconds", 0.99)
	m["sched.decision_write_ms_p50"] = quantileMs("dtx_2pc_decision_write_seconds", 0.5)
	m["sched.commit_fanout_ms_p50"] = quantileMs("dtx_2pc_commit_fanout_seconds", 0.5)
	m["sched.commit_fanout_ms_p99"] = quantileMs("dtx_2pc_commit_fanout_seconds", 0.99)
	m["sched.persist_save_ms_p50"] = quantileMs("dtx_persist_save_seconds", 0.5)
	m["sched.persist_save_ms_p99"] = quantileMs("dtx_persist_save_seconds", 0.99)
	m["sched.detector_cycle_ms_p50"] = quantileMs("dtx_deadlock_cycle_seconds", 0.5)
	saves := s1.delta(s0, "dtx_persist_batch_size_count")
	m["sched.persist_batch_mean"] = metric{Value: s1.delta(s0, "dtx_persist_batch_size_sum") / max(saves, 1), Unit: "count", n: int(saves)}
	m["sched.conflicts_per_commit"] = perCommit("dtx_op_conflicts_total")
	m["sched.deadlock_aborts_per_commit"] = perCommit("dtx_deadlock_aborts_total")
	m["sched.remote_ops_per_commit"] = perCommit("dtx_remote_ops_sent_total")
	m["lock.locks_per_commit"] = perCommit("dtx_locks_acquired_total")

	m["mvcc.publishes_per_write"] = metric{Value: s1.delta(s0, "dtx_snapshot_publishes_total") / writes, Unit: "count", n: len(w.lat[1])}
	m["mvcc.snapshot_reads_per_s"] = metric{Value: s1.delta(s0, "dtx_snapshot_reads_total") / w.seconds, Unit: "1/s", n: int(s1.delta(s0, "dtx_snapshot_reads_total"))}
	chains := s1.n["dtx_mvcc_chain_length"]
	m["mvcc.chain_length"] = metric{Value: s1.sum["dtx_mvcc_chain_length"] / float64(max(chains, 1)), Unit: "count", n: chains}

	m["store.wchar_bytes_per_write"] = metric{Value: (w.after.wchar - w.before.wchar) / writes, Unit: "bytes", n: len(w.lat[1])}
	m["store.doc_growth_ratio"] = metric{Value: growth, Unit: "ratio", n: wl.docs}
	m["dtxd.cpu_user_ms_per_commit"] = metric{Value: (w.after.userMs - w.before.userMs) / commits, Unit: "ms", n: w.commits()}
	m["dtxd.cpu_sys_ms_per_commit"] = metric{Value: (w.after.sysMs - w.before.sysMs) / commits, Unit: "ms", n: w.commits()}

	var wire []wirePair
	for _, cl := range clients {
		wire = append(wire, cl.wire...)
	}
	m["transport.submit_bytes"] = submitBytes(wire)

	// What the per-layer numbers explain of a write transaction's median: the
	// client round trip, the execute phase of each of its operations, the
	// decision record and the commit fan-out, over the latency the client
	// measured in the same window.
	explained := m["transport.tcp_rtt_us"].Value/1000 +
		float64(wl.writeOps)*m["sched.op_exec_ms_p50"].Value +
		m["sched.decision_write_ms_p50"].Value + m["sched.commit_fanout_ms_p50"].Value
	m["trace.attributed_ratio"] = metric{Value: explained / percentile(w.lat[1], 0.5), Unit: "ratio", n: len(w.lat[1])}

	m["trace.overhead_ratio"] = metric{
		Value: (float64(w.commits()) / w.seconds) / (float64(untraced.commits()) / untraced.seconds),
		Unit:  "ratio", n: w.commits() + untraced.commits(),
	}
}
