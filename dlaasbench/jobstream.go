package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	dlaas "repro"
	"repro/internal/clock"
	"repro/internal/core/types"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// job-stream: four tenants share a deliberately small platform (4 nodes
// x 4 K80, 3 etcd replicas, 2 API replicas). Jobs arrive open-loop on a
// seeded Poisson schedule in virtual time; gangs of 1-4 learners demand
// more GPUs than the cluster has, so they queue. One generator goroutine
// submits; one observer goroutine polls Client.Status every 250 virtual
// ms, one active job per poll, and times every call. A run holds
// streamReplicas such platforms with independent streams.

const (
	streamNodes       = 4
	streamGPUsPerNode = 4
	// streamCycle is the job count of one balanced cycle of the stream
	// (see genStream); a run holds one cycle per streamSecondsPerCycle
	// of --seconds, at least one.
	streamCycle           = 16
	streamSecondsPerCycle = 30
	// streamMeanGap is the Poisson mean inter-arrival time (virtual).
	streamMeanGap = 1500 * time.Millisecond
	// streamImages and streamBytes are the base dataset; each job scales
	// both by a factor in [0.5, 1.5).
	streamImages = 200
	streamBytes  = 128 << 20
	pollEvery    = 250 * time.Millisecond
	// streamReplicas is how many independent streams, each on its own
	// platform, a run holds.
	streamReplicas = 4
)

// streamTenants pairs each tenant with the framework and model its jobs
// train, so the stream is multi-tenant and multi-framework.
var streamTenants = []struct{ name, framework, model string }{
	{"tenant-a", "tensorflow", "resnet50"},
	{"tenant-b", "pytorch", "inceptionv3"},
	{"tenant-c", "caffe", "alexnet"},
	{"tenant-d", "horovod", "resnet50"},
}

// streamJob is one generated job of the stream.
type streamJob struct {
	tenant   int
	learners int
	factor   float64       // dataset scale in [0.5, 1.5)
	arrival  time.Duration // virtual offset from the start of the timed phase
}

// genStream generates the whole stream from the seed, in cycles of
// streamCycle jobs. Arrivals are a Poisson process conditioned on its
// count: the first job arrives at 0 and the others at sorted uniform
// times in the stream's span, so seeds move the bursts, not the length.
// Each cycle is a randomized Graeco-Latin square: 4 blocks of 4
// consecutive jobs, one per tenant, where every block and every tenant
// get each gang size 1-4 once and one dataset factor from each quarter
// of [0.5, 1.5), and every (gang size, factor quarter) pair occurs once.
// Seeds differ in arrangement and exact values, not in total or local
// work, which keeps the run-to-run spread of the stream small.
func genStream(seed int64, cycles int) []streamJob {
	rng := rand.New(rand.NewSource(seed))
	n := cycles * streamCycle
	arrivals := make([]time.Duration, n)
	span := streamSpan(n)
	for i := 1; i < n; i++ {
		arrivals[i] = time.Duration(rng.Float64() * float64(span))
	}
	sort.Slice(arrivals, func(a, b int) bool { return arrivals[a] < arrivals[b] })
	jobs := make([]streamJob, 0, n)
	for c := 0; c < cycles; c++ {
		// Two orthogonal Latin squares over GF(4), b^t and 2b^t, with
		// rows, columns and both symbol sets relabelled at random.
		rows, cols, gangOf, quarterOf := rng.Perm(4), rng.Perm(4), rng.Perm(4), rng.Perm(4)
		for _, b := range rows {
			for _, t := range rng.Perm(4) { // arrival order within the block
				ct := cols[t]
				jobs = append(jobs, streamJob{
					tenant:   t,
					learners: 1 + gangOf[b^ct],
					factor:   0.5 + (float64(quarterOf[gf4Double[b]^ct])+rng.Float64())/4,
				})
			}
		}
	}
	for i := range jobs {
		jobs[i].arrival = arrivals[i]
	}
	return jobs
}

// gf4Double is multiplication by 2 in GF(4), whose addition is XOR.
var gf4Double = [4]int{0, 2, 3, 1}

// streamSpan is the arrival window of an n-job stream.
func streamSpan(n int) time.Duration { return time.Duration(n-1) * streamMeanGap }

// streamCycles sizes the stream from --seconds.
func streamCycles(seconds int) int {
	if c := seconds / streamSecondsPerCycle; c > 1 {
		return c
	}
	return 1
}

// stagedStream is a booted platform with every job's manifest staged.
type stagedStream struct {
	p         *dlaas.Platform
	sim       *clock.Sim     // traced runs only: the clock the run owns
	clk       *countingClock // traced runs only
	manifests []*dlaas.Manifest
}

func (s *stagedStream) close() {
	s.p.Close()
	if s.sim != nil {
		s.sim.Close()
	}
}

// bootStream boots the platform and stages every dataset and results
// bucket. In a traced run the platform gets a counting wrapper around a
// sim clock the benchmark owns.
func bootStream(seed int64, jobs []streamJob, traced bool) (*stagedStream, error) {
	s := &stagedStream{}
	opts := dlaas.Options{
		Nodes: streamNodes, GPUsPerNode: streamGPUsPerNode,
		EtcdReplicas: 3, APIReplicas: 2, Seed: seed,
	}
	if traced {
		s.sim = clock.NewSim()
		s.clk = newCountingClock(s.sim)
		opts.Clock = s.clk
	}
	p, err := dlaas.New(opts)
	if err != nil {
		if s.sim != nil {
			s.sim.Close()
		}
		return nil, err
	}
	s.p = p
	data := make([]dlaas.DataRef, len(streamTenants))
	results := make([]dlaas.DataRef, len(streamTenants))
	for t, tn := range streamTenants {
		creds := dlaas.Credentials{AccessKey: tn.name, SecretKey: tn.name + "-secret"}
		if data[t], err = p.CreateDataset("data-"+tn.name, "seed.rec", 1<<20, creds); err == nil {
			results[t], err = p.CreateResultsBucket("results-"+tn.name, creds)
		}
		if err != nil {
			s.close()
			return nil, err
		}
	}
	for i, j := range jobs {
		tn := streamTenants[j.tenant]
		creds := dlaas.Credentials{AccessKey: tn.name, SecretKey: tn.name + "-secret"}
		ref := data[j.tenant]
		ref.Key = fmt.Sprintf("train/job-%03d.rec", i)
		if err := p.ObjectStore().PutSynthetic(ref.Bucket, ref.Key, int64(j.factor*streamBytes), creds); err != nil {
			s.close()
			return nil, err
		}
		s.manifests = append(s.manifests, &dlaas.Manifest{
			Name: fmt.Sprintf("stream-%03d", i), Framework: tn.framework, Model: tn.model,
			Learners: j.learners, GPUsPerLearner: 1, BatchPerGPU: 32, Epochs: 1,
			DatasetImages:      int64(j.factor * streamImages),
			TrainingData:       ref,
			Results:            results[j.tenant],
			CheckpointInterval: 30 * time.Second,
		})
	}
	return s, nil
}

// streamRun is one replica's live state in the timed phase.
type streamRun struct {
	st    *stagedStream
	p     *dlaas.Platform
	jobs  []streamJob
	clk   clock.Clock
	spans *spanLog
	root  int

	// Set before the timed phase; read after it.
	before      metrics.Export
	clockBefore map[string]uint64
	// Set by run.
	v0      time.Time
	elapsed reading // this replica's own virtual and wall time

	mu       sync.Mutex
	api      sampleSet // virtual ms per Client call
	callErrs int
	ids      []string // by job index; "" until submitted
	done     []bool
	final    []types.JobRecord
	events   [][]dlaas.Event
	finished int
	lateMax  time.Duration
	gpuBusy  sampleSet
	pending  int
	paths    [][]trace.PhaseCost // critical paths of completed jobs
}

func newStreamRun(st *stagedStream, jobs []streamJob, spans *spanLog, replica int) *streamRun {
	r := &streamRun{
		st: st, p: st.p, jobs: jobs, clk: st.p.Clock(), spans: spans,
		ids: make([]string, len(jobs)), done: make([]bool, len(jobs)),
		final: make([]types.JobRecord, len(jobs)), events: make([][]dlaas.Event, len(jobs)),
	}
	r.root = spans.begin("job-stream", fmt.Sprintf("replica-%d", replica), 0)
	r.before = st.p.Metrics().Export()
	if st.clk != nil {
		r.clockBefore = st.clk.snapshot()
	}
	return r
}

// call times one Client call in virtual ms, and in a traced run wraps it
// in a span.
func (r *streamRun) call(method, req string, f func() error) error {
	v0 := r.clk.Now()
	err := r.spans.timed("rpc."+method, req, r.root, f)
	ms := float64(r.clk.Since(v0)) / float64(time.Millisecond)
	r.mu.Lock()
	r.api.add(ms)
	if err != nil {
		r.callErrs++
	}
	r.mu.Unlock()
	return err
}

// runJobStream boots streamReplicas independent platforms, each with
// its own stream generated from a sub-seed, runs the streams
// concurrently and pools their results. Replicas multiply the work a
// run measures without adding wall time: each platform is idle most of
// the time.
func runJobStream(cfg config, spans *spanLog, res *result) error {
	traced := spans != nil
	var setups []float64
	var runs []*streamRun
	defer func() {
		for _, r := range runs {
			r.st.close()
		}
	}()
	for k := 0; k < streamReplicas; k++ {
		sub := cfg.seed*streamReplicas + int64(k)
		jobs := genStream(sub, streamCycles(cfg.seconds))
		w0 := wallNow()
		id := spans.begin("setup", fmt.Sprintf("replica-%d", k), 0)
		st, err := bootStream(sub, jobs, traced)
		spans.end(id, err)
		if err != nil {
			return fmt.Errorf("boot: %w", err)
		}
		setups = append(setups, wallSince(w0).Seconds())
		runs = append(runs, newStreamRun(st, jobs, spans, k))
	}
	res.e2e("setup_s", median(setups), "s", len(setups))

	meter := startPhase()
	var wg sync.WaitGroup
	for _, r := range runs {
		wg.Add(1)
		go func(r *streamRun) {
			defer wg.Done()
			r.run(meter)
		}(r)
	}
	wg.Wait()
	var virtual time.Duration
	var speed sampleSet
	for _, r := range runs {
		virtual += r.elapsed.virtual
		speed.add(r.elapsed.speed())
	}
	whole := meter.read(virtual)
	whole.report(res)
	// sim_speed is per platform: the median replica's virtual seconds
	// simulated per wall second.
	res.e2e("sim_speed", speed.quantile(0.5), "vs/s", speed.n())

	scoreStreams(runs, res)
	if traced {
		layersOfStreams(runs, res, whole)
	}
	return nil
}

// run drives one replica's timed phase: the generator submits on
// schedule while the observer polls until every job is terminal.
func (r *streamRun) run(meter phaseMeter) {
	r.v0 = r.clk.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		r.generate()
	}()
	go func() {
		defer wg.Done()
		r.observe()
	}()
	wg.Wait()
	r.elapsed = meter.read(r.clk.Since(r.v0))
	r.spans.end(r.root, nil)
}

// generate submits each job at its arrival time.
func (r *streamRun) generate() {
	for i, j := range r.jobs {
		due := r.v0.Add(j.arrival)
		if d := due.Sub(r.clk.Now()); d > 0 {
			r.clk.Sleep(d)
		}
		late := r.clk.Now().Sub(due)
		client := r.p.Client(streamTenants[j.tenant].name)
		var id string
		err := r.call("Submit", fmt.Sprintf("job-%03d", i), func() error {
			var err error
			id, err = client.Submit(r.st.manifests[i])
			return err
		})
		r.mu.Lock()
		if late > r.lateMax {
			r.lateMax = late
		}
		if err == nil {
			r.ids[i] = id
		} else {
			// A refused submission can never complete; mark it done so
			// the observer does not wait for it. scoreStreams counts it
			// failed.
			r.done[i] = true
			r.finished++
		}
		r.mu.Unlock()
	}
}

// observe polls one active job per tick until every job is terminal or
// the run deadline passes.
func (r *streamRun) observe() {
	n := len(r.jobs)
	next := 0
	for {
		r.clk.Sleep(pollEvery)
		if r.st.sim != nil {
			r.sample()
		}
		r.mu.Lock()
		if r.finished == n || wallNow().After(runDeadline) {
			r.mu.Unlock()
			return
		}
		pick, id := -1, ""
		for k := 0; k < n; k++ {
			i := (next + k) % n
			if r.ids[i] != "" && !r.done[i] {
				pick, id = i, r.ids[i]
				break
			}
		}
		r.mu.Unlock()
		if pick < 0 {
			continue
		}
		next = pick + 1
		r.poll(pick, id)
	}
}

// poll reads one job's status; a terminal job also has its event
// history fetched.
func (r *streamRun) poll(i int, id string) {
	client := r.p.Client(streamTenants[r.jobs[i].tenant].name)
	var rec dlaas.JobRecord
	if err := r.call("Status", id, func() error {
		var err error
		rec, err = client.Status(id)
		return err
	}); err != nil || !rec.State.Terminal() {
		return
	}
	var evs []dlaas.Event
	err := r.call("Events", id, func() error {
		var err error
		evs, err = client.Events(id)
		return err
	})
	if err != nil {
		return
	}
	r.mu.Lock()
	r.done[i] = true
	r.finished++
	r.final[i] = rec
	r.events[i] = evs
	r.mu.Unlock()
}

// sample records the traced run's per-poll gauges.
func (r *streamRun) sample() {
	total := streamNodes * streamGPUsPerNode
	busy := 1 - float64(r.p.Cluster().FreeGPUs("K80"))/float64(total)
	pending := r.st.sim.PendingEvents()
	r.mu.Lock()
	r.gpuBusy.add(busy)
	if pending > r.pending {
		r.pending = pending
	}
	r.mu.Unlock()
}

// scoreStreams checks every job's outcome and records the end-to-end
// metrics over all replicas' jobs.
func scoreStreams(runs []*streamRun, res *result) {
	var api, makespan, start, overhead, drain sampleSet
	var lateMax time.Duration
	jobs := 0
	for _, r := range runs {
		var lastDone time.Time
		for i := range r.jobs {
			jobs++
			id := r.ids[i]
			ok := id != "" && r.final[i].State == dlaas.StateCompleted
			res.check(ok, "job %d (%s) ended %q, want COMPLETED", i, id, r.final[i].State)
			if !ok {
				continue
			}
			evs := r.events[i]
			res.check(legalHistory(evs), "job %s history is not a legal walk: %v", id, evs)
			queued := eventTime(evs, dlaas.StateQueued)
			completed := eventTime(evs, dlaas.StateCompleted)
			ms := completed.Sub(queued)
			makespan.add(ms.Seconds())
			start.add(eventTime(evs, dlaas.StateProcessing).Sub(queued).Seconds())
			if completed.After(lastDone) {
				lastDone = completed
			}
			att := trace.CriticalPath(r.p.Trace().Tree(id))
			var sum time.Duration
			for _, pc := range att.Phases {
				sum += pc.Cost
			}
			r.paths = append(r.paths, att.Phases)
			overhead.add((att.Total - att.Phase(trace.PhaseQueue) - att.Phase(trace.PhaseTrain)).Seconds())
			res.check(sum == att.Total && absDur(att.Total-ms) <= criticalPathSlack,
				"job %s critical path: phases sum %v, total %v, event makespan %v", id, sum, att.Total, ms)
		}
		drain.add(lastDone.Sub(r.v0).Seconds())
		api.vals = append(api.vals, r.api.vals...)
		// Every Client call is a checked output too.
		res.attempt(r.api.n())
		for k := 0; k < r.callErrs; k++ {
			res.fail("Client call failed")
		}
		if r.lateMax > lateMax {
			lateMax = r.lateMax
		}
	}
	// The platform's latency per job is what it adds to training: the
	// makespan minus time queued for GPUs and time spent training.
	res.e2e("latency_p50_ms", overhead.quantile(0.5)*1000, "ms", overhead.n())
	tail(res, "job_overhead", &overhead, "s")
	tail(res, "job_makespan", &makespan, "s")
	tail(res, "job_start", &start, "s")
	res.e2e("drain_s", drain.quantile(0.5), "s", drain.n())
	tail(res, "api", &api, "ms")
	res.e2e("api_p95_ms", api.quantile(0.95), "ms", api.n())
	res.e2e("generator_late_max_ms", float64(lateMax)/float64(time.Millisecond), "ms", jobs)
}

// criticalPathSlack is how far a job's traced makespan may sit from its
// event-history makespan: the root span and the state events are stamped
// by different calls at the same virtual instants.
const criticalPathSlack = time.Millisecond

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

// legalHistory reports whether a job's events start at QUEUED, walk the
// job state machine and carry non-decreasing timestamps.
func legalHistory(evs []dlaas.Event) bool {
	if len(evs) == 0 || evs[0].State != dlaas.StateQueued {
		return false
	}
	for k := 1; k < len(evs); k++ {
		if !types.CanTransition(evs[k-1].State, evs[k].State) || evs[k].Time.Before(evs[k-1].Time) {
			return false
		}
	}
	return true
}

// eventTime is the time of the first event entering state s.
func eventTime(evs []dlaas.Event, s dlaas.JobState) time.Time {
	for _, e := range evs {
		if e.State == s {
			return e.Time
		}
	}
	return time.Time{}
}

// layersOfStreams records the traced run's per-layer metrics, summed
// over replicas.
func layersOfStreams(runs []*streamRun, res *result, whole reading) {
	in := layerInput{
		phase: whole, clockCalls: map[string]uint64{},
		before:    metrics.Export{Counters: map[string]float64{}},
		after:     metrics.Export{Counters: map[string]float64{}},
		rpcWallUS: runs[0].spans.durationsUS("rpc."),
		gpuBusy:   &sampleSet{},
	}
	for _, r := range runs {
		in.jobs += len(r.jobs)
		for k, v := range r.st.clk.snapshot() {
			in.clockCalls[k] += v - r.clockBefore[k]
		}
		for k, v := range r.before.Counters {
			in.before.Counters[k] += v
		}
		for k, v := range r.p.Metrics().Export().Counters {
			in.after.Counters[k] += v
		}
		if r.pending > in.pendingMax {
			in.pendingMax = r.pending
		}
		in.gpuBusy.vals = append(in.gpuBusy.vals, r.gpuBusy.vals...)
		in.phases = append(in.phases, r.paths...)
	}
	recordLayers(res, in)
}
