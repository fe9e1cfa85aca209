package main

// counterMetrics turns a counter delta — the server's INFO before and after
// a phase, or the engine's own counters under the same names — into the
// per-layer metrics that are ratios of work done: per operation, per
// transaction, or as a share of outcomes. ops is the number of operations
// the client completed in the phase, userBytes the key and value bytes it
// wrote.
func counterMetrics(res *result, d info, ops, userBytes float64) {
	n := uint64(ops)
	per := func(name, counter string) { res.layer(name, ratio(float64(d[counter]), ops), n) }
	mean := func(name, histo string) {
		res.layer(name, ratio(float64(d[histo+".sum"]), float64(d[histo+".count"])), uint64(d[histo+".count"]))
	}
	count := func(name, counter string) { res.layer(name, float64(d[counter]), 1) }

	per("wire.frames_per_op", "wire.frames")
	per("wire.bytes_per_op", "wire.bytes")

	per("server.bytes_in_per_op", "conn.bytes_in")
	per("server.bytes_out_per_op", "conn.bytes_out")
	mean("server.responses_per_flush", "conn.burst_responses")

	mean("sched.ops_per_drain", "sched.drain_batch")
	mean("sched.op_latency_mean_ns", "sched.op_latency_ns")
	mean("sched.sync_wait_mean_ns", "sched.sync_wait_ns")

	per("kv.groups_per_op", "kv.apply.groups")
	mean("kv.ops_per_group", "kv.apply.group_ops")
	count("kv.fallbacks", "kv.apply.fallbacks")
	count("kv.group_aborts", "kv.apply.group_aborts")
	count("kv.rehash_completed", "kv.rehash.completed")
	count("kv.migrate_batches", "kv.rehash.migrate_batches")
	count("kv.checkpoints", "kv.checkpoints")
	mean("kv.checkpoint_mean_ns", "kv.checkpoint_ns")

	txns := float64(d["core.txns"])
	share := func(name, outcome string) {
		res.layer(name, ratio(float64(d["core.outcomes."+outcome]), txns), uint64(txns))
	}
	per("core.txns_per_op", "core.txns")
	res.layer("core.writes_per_txn", ratio(float64(d["core.writes"]), txns), uint64(txns))
	share("core.redo_share", "redo")
	share("core.validate_share", "validate")
	share("core.sgl_share", "sgl")
	share("core.read_only_share", "read_only")
	mean("core.sgl_dwell_mean_ns", "core.sgl.dwell_ns")
	count("core.log_half_swaps", "core.log.half_swaps")
	count("core.forced_empties", "core.log.forced_empties")

	aborts := d["htm.aborts.conflict"] + d["htm.aborts.capacity"] + d["htm.aborts.explicit"] + d["htm.aborts.zero"]
	attempts := float64(d["htm.commits"] + aborts)
	perK := func(name, counter string) { res.layer(name, 1000*ratio(float64(d[counter]), ops), n) }
	per("htm.commits_per_op", "htm.commits")
	res.layer("htm.abort_ratio", ratio(float64(aborts), attempts), uint64(attempts))
	perK("htm.conflict_per_kop", "htm.aborts.conflict")
	perK("htm.capacity_per_kop", "htm.aborts.capacity")
	perK("htm.explicit_per_kop", "htm.aborts.explicit")

	per("nvm.fences_per_op", "nvm.fences")
	per("nvm.drains_per_op", "nvm.drains")
	per("nvm.flushed_lines_per_op", "nvm.flushed_lines")
	res.layer("nvm.flush_bytes_per_user_byte", ratio(float64(d["nvm.flushed_lines"])*64, userBytes), uint64(userBytes))
}

// arenaMetrics are the allocator's absolute state at the end of a phase.
func arenaMetrics(res *result, after info) {
	res.layer("alloc.live_words", float64(after["arena.live_words"]), 1)
	res.layer("alloc.used_words", float64(after["arena.used_words"]), 1)
	res.layer("alloc.free_blocks", float64(after["arena.free_blocks"]), 1)
}
