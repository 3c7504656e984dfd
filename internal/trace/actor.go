package trace

// ActorKey returns the stable identity used to shard an event stream
// for parallel processing. It mirrors how the builtin detectors group
// correlation state: source address for transport/auth events, kernel
// for resource samples (CM-003 thresholds by kernel_id), else user,
// else source, else kernel. Sharding by it keeps every builtin
// threshold window and sequence on one shard, in time order; a custom
// rule whose GroupBy cuts across actor keys (say, grouping http
// events by user) loses the serial-equivalence guarantee.
func ActorKey(e Event) string { return e.ActorKey() }

// ActorKey is the function ActorKey without the copy of the event: the
// form the per-event paths (core shard pick, segment frame header and
// index) call.
func (e *Event) ActorKey() string {
	if (e.Kind == KindAuth || e.Kind == KindHTTP || e.Kind == KindConn) && e.SrcIP != "" {
		return e.SrcIP
	}
	if e.Kind == KindSysRes && e.KernelID != "" {
		return e.KernelID
	}
	switch {
	case e.User != "":
		return e.User
	case e.SrcIP != "":
		return e.SrcIP
	default:
		return e.KernelID
	}
}

// ShardIndex maps a shard key to one of n shards via FNV-1a — the
// routing every sharded consumer (Stage lanes, store replay) shares,
// so one actor always lands on one shard no matter which path
// delivered it.
func ShardIndex(key string, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int(h % uint64(n))
}
