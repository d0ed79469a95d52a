package main

import (
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// endToEndMetrics are the metrics an untraced run reports on its last
// line, in BENCHMARK.json order. Every workload reports all of them; the
// README gives each one's meaning per workload. cpu_ms_per_vs is left
// to the report lines: process CPU time drifts with the load other
// processes put on the machine, by up to 40% between runs half an hour
// apart, while these stay within a few percent.
var endToEndMetrics = []string{"setup_s", "sim_speed", "latency_p50_ms"}

// perLayerMetrics are the metrics a traced run reports on its last line.
// A layer a workload does not exercise reads 0.
var perLayerMetrics = func() []string {
	var names []string
	for _, m := range clockModules {
		names = append(names, "clock.calls_per_vs."+m)
	}
	names = append(names,
		"clock.pending_max", "clock.idle_share",
		"rpc.calls", "rpc.call_wall_us_p50", "rpc.call_wall_us_p95",
	)
	for _, op := range etcdOpKinds {
		names = append(names, "etcd.ops_per_job."+op)
	}
	names = append(names,
		"etcd.writes_per_proposal", "etcd.rounds_per_read", "etcd.lease_read_share",
	)
	for _, op := range []string{"put", "get", "range"} {
		names = append(names, "etcd."+op+"_wall_us_p50", "etcd."+op+"_wall_us_p99")
	}
	names = append(names, "etcd.watch_events_per_write",
		"raft.appends_per_write", "raft.entries_per_append", "raft.append_rejects",
		"raft.appends_per_vs", "raft.lease_expiries",
		"store.commits_per_vs", "mongo.ops_per_job",
		"kube.gpu_busy_share",
	)
	for _, p := range phaseMetrics {
		names = append(names, p.metric)
	}
	return append(names, "jobmonitor.checks_failed", "trace.overhead")
}()

var etcdOpKinds = []string{"put", "get", "range", "delete", "watch"}

// phaseMetrics maps critical-path phases to the layer metric that
// reports their mean virtual seconds per job.
var phaseMetrics = []struct{ metric, phase string }{
	{"kube.queue_s", trace.PhaseQueue},
	{"kube.image_pull_s", trace.PhaseImagePull},
	{"core.deploy_s", trace.PhaseDeploy},
	{"core.control_s", trace.PhaseControl},
	{"core.rendezvous_s", trace.PhaseRendezvous},
	{"core.recovery_s", trace.PhaseRecovery},
	{"core.evict_s", trace.PhaseEvict},
	{"nfs.checkpoint_s", trace.PhaseCheckpoint},
	{"nfs.stall_s", trace.PhaseStall},
	{"objectstore.download_s", trace.PhaseDownload},
	{"objectstore.store_s", trace.PhaseStore},
	{"trainsim.train_s", trace.PhaseTrain},
}

// layerInput is what a traced workload measured; recordLayers turns it
// into the per-layer metrics. Zero fields are layers the workload did
// not reach.
type layerInput struct {
	phase reading
	// jobs is the per-job denominator (preloaded jobs in metadata-churn).
	jobs int
	// before and after are metrics-registry snapshots around the timed
	// phase (before may be empty: counters then count from boot).
	before, after metrics.Export
	// clockCalls are timer-creating clock calls per module during the
	// timed phase; nil when the workload's clock could not be wrapped.
	clockCalls map[string]uint64
	pendingMax int
	// rpcWallUS and etcdWallUS are wall durations of the benchmark's
	// timed calls, from the span log.
	rpcWallUS  *sampleSet
	etcdWallUS map[string]*sampleSet
	// watchPerWrite is watch events seen per acknowledged write.
	watchPerWrite float64
	gpuBusy       *sampleSet
	// phases are per-job critical-path attributions.
	phases       [][]trace.PhaseCost
	checksFailed int
}

func recordLayers(res *result, in layerInput) {
	vs := in.phase.virtual.Seconds()
	perVS := func(v float64) float64 { return safeDiv(v, vs) }
	for _, m := range clockModules {
		res.layer("clock.calls_per_vs."+m, perVS(float64(in.clockCalls[m])), "calls/vs", 0)
	}
	res.layer("clock.pending_max", float64(in.pendingMax), "events", 0)
	res.layer("clock.idle_share", 1-safeDiv(in.phase.cpu.Seconds(), in.phase.wall.Seconds()), "ratio", 0)

	rpc := orEmpty(in.rpcWallUS)
	res.layer("rpc.calls", float64(rpc.n()), "count", 0)
	res.layer("rpc.call_wall_us_p50", rpc.quantile(0.5), "us", rpc.n())
	res.layer("rpc.call_wall_us_p95", rpc.quantile(0.95), "us", rpc.n())

	d := func(name, label string) float64 {
		return counterSum(in.after, name, label) - counterSum(in.before, name, label)
	}
	jobs := float64(in.jobs)
	for _, op := range etcdOpKinds {
		res.layer("etcd.ops_per_job."+op, safeDiv(d("etcd_client_ops", op), jobs), "ops/job", 0)
	}
	reads := d("etcd_client_ops", "get") + d("etcd_client_ops", "range")
	writes := d("etcd_client_ops", "put") + d("etcd_client_ops", "delete") +
		d("etcd_client_ops", "cas") + d("etcd_client_ops", "txn")
	appends := d("raft_appends_sent", "")
	res.layer("etcd.writes_per_proposal", safeDiv(d("etcd_batched_cmds", ""), d("etcd_batches", "")), "writes/proposal", 0)
	res.layer("etcd.rounds_per_read", safeDiv(d("raft_readindex_rounds", ""), reads), "rounds/read", 0)
	res.layer("etcd.lease_read_share", safeDiv(d("raft_lease_reads", ""), reads), "ratio", 0)
	for _, op := range []string{"put", "get", "range"} {
		s := orEmpty(in.etcdWallUS[op])
		res.layer("etcd."+op+"_wall_us_p50", s.quantile(0.5), "us", s.n())
		res.layer("etcd."+op+"_wall_us_p99", s.quantile(0.99), "us", s.n())
	}
	res.layer("etcd.watch_events_per_write", in.watchPerWrite, "events/write", 0)
	res.layer("raft.appends_per_write", safeDiv(appends, writes), "appends/write", 0)
	res.layer("raft.entries_per_append", safeDiv(d("raft_entries_sent", ""), appends), "entries/append", 0)
	res.layer("raft.append_rejects", d("raft_append_rejects", ""), "count", 0)
	res.layer("raft.appends_per_vs", perVS(appends), "appends/vs", 0)
	res.layer("raft.lease_expiries", d("raft_lease_expiries", ""), "count", 0)
	res.layer("store.commits_per_vs", perVS(d("store_shard_commits", "")), "commits/vs", 0)
	res.layer("mongo.ops_per_job", safeDiv(d("store_shard_commits", "mongo"), jobs), "commits/job", 0)

	busy := orEmpty(in.gpuBusy)
	res.layer("kube.gpu_busy_share", busy.mean(), "ratio", busy.n())
	for _, pm := range phaseMetrics {
		var s sampleSet
		for _, costs := range in.phases {
			s.add(phaseCost(costs, pm.phase).Seconds())
		}
		res.layer(pm.metric, s.mean(), "s", s.n())
	}
	res.layer("jobmonitor.checks_failed", float64(in.checksFailed), "count", 0)
}

// counterSum sums the counters named name whose label list starts with
// label ("" matches every label).
func counterSum(e metrics.Export, name, label string) float64 {
	total := 0.0
	for k, v := range e.Counters {
		n, labels, _ := strings.Cut(strings.TrimSuffix(k, "}"), "{")
		if n == name && strings.HasPrefix(labels, label) {
			total += v
		}
	}
	return total
}

func phaseCost(costs []trace.PhaseCost, phase string) time.Duration {
	for _, c := range costs {
		if c.Phase == phase {
			return c.Cost
		}
	}
	return 0
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func orEmpty(s *sampleSet) *sampleSet {
	if s == nil {
		return &sampleSet{}
	}
	return s
}
