package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core/types"
	"repro/internal/etcd"
	"repro/internal/metrics"
)

// metadata-churn: the etcd facade alone, a 3-replica store with one
// follower slowed by +5 ms. Learner-status keys for 64 jobs x 4 learners
// are preloaded. Requests arrive open-loop on a seeded Poisson schedule
// at a fixed virtual rate: status-update Puts beside point Gets and
// per-job Ranges. One watch consumer listens on the job prefix; one
// dispatcher goroutine starts each request when it is due.

const (
	churnJobs     = 64
	churnLearners = 4
	// churnRate is the offered load in requests per virtual second.
	churnRate = 2000
	// churnVSPerSecond sizes the schedule: its virtual length is
	// seconds x this, chosen so a run at the seed baseline measures
	// about --seconds of wall time.
	churnVSPerSecond = 0.1
	churnSlowDelay   = 5 * time.Millisecond
	churnPrefix      = "/dlaas/jobs/"
	// churnWatchGrace bounds how long (virtual) the watch consumer may
	// lag the last acknowledged write before a missing event counts as
	// lost.
	churnWatchGrace = 5 * time.Second
)

// churnMix is the request mix in tenths: 3 Puts, 5 Gets, 2 Ranges.
var churnMix = []byte("pppgggggrr")

type churnReq struct {
	due     time.Duration // virtual offset from the start of the timed phase
	kind    byte          // 'p' Put, 'g' Get, 'r' Range
	job     int
	learner int
}

// genChurn generates the request schedule from the seed: exponential
// gaps at churnRate, the mix in exact proportions in seeded order, and
// uniformly chosen keys.
func genChurn(seed int64, n int) []churnReq {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]churnReq, n)
	var at time.Duration
	for i := range reqs {
		at += time.Duration(rng.ExpFloat64() * float64(time.Second) / churnRate)
		reqs[i] = churnReq{
			due:     at,
			kind:    churnMix[i%len(churnMix)],
			job:     rng.Intn(churnJobs),
			learner: rng.Intn(churnLearners),
		}
	}
	rng.Shuffle(n, func(a, b int) { reqs[a].kind, reqs[b].kind = reqs[b].kind, reqs[a].kind })
	return reqs
}

func churnJobID(j int) string { return fmt.Sprintf("job-%02d", j) }

func churnKey(j, l int) string { return types.LearnerStatusKey(churnJobID(j), l) }

// churnValue encodes a learner status update; seq orders one key's
// updates.
func churnValue(seq int) string { return fmt.Sprintf("%d|%s", seq, types.LearnerTraining) }

func churnSeq(v string) (int, bool) {
	s, _, _ := strings.Cut(v, "|")
	n, err := strconv.Atoi(s)
	return n, err == nil
}

// churnStore is a booted, preloaded etcd facade.
type churnStore struct {
	s   *etcd.Store
	sim *clock.Sim
	clk clock.Clock
	cc  *countingClock    // traced runs only
	reg *metrics.Registry // traced runs only
}

func (c *churnStore) close() {
	c.s.Close()
	c.sim.Close()
}

// bootChurn boots the store, preloads every status key (seq 0) and
// slows one follower.
func bootChurn(traced bool) (*churnStore, error) {
	c := &churnStore{sim: clock.NewSim()}
	c.clk = c.sim
	if traced {
		c.cc = newCountingClock(c.sim)
		c.clk = c.cc
	}
	c.s = etcd.New(3, c.clk)
	if traced {
		c.reg = metrics.NewRegistry()
		c.s.Instrument(c.reg)
	}
	keys := make(chan string)
	errs := make(chan error, churnJobs*churnLearners)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range keys {
				if _, err := c.s.Put(k, churnValue(0)); err != nil {
					errs <- err
				}
			}
		}()
	}
	for j := 0; j < churnJobs; j++ {
		for l := 0; l < churnLearners; l++ {
			keys <- churnKey(j, l)
		}
	}
	close(keys)
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		c.close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	leader := c.s.LeaderID()
	for _, id := range c.s.Nodes() {
		if id != leader {
			c.s.SetNodeDelay(id, churnSlowDelay)
			break
		}
	}
	return c, nil
}

// keyState serializes one key's status updates (a learner reports its
// statuses in order) and records when each was acknowledged.
type keyState struct {
	writeMu sync.Mutex // held across a Put: one update in flight per key
	seq     int        // guarded by writeMu

	mu   sync.Mutex
	acks []churnAck // in seq order
}

type churnAck struct {
	at  time.Time
	seq int
}

// newestAckedBefore is the newest seq acknowledged strictly before t.
func (k *keyState) newestAckedBefore(t time.Time) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	newest := 0
	for _, a := range k.acks {
		if a.at.Before(t) && a.seq > newest {
			newest = a.seq
		}
	}
	return newest
}

func (k *keyState) acked() (n, last int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if len(k.acks) == 0 {
		return 0, 0
	}
	return len(k.acks), k.acks[len(k.acks)-1].seq
}

// churnRun is the live state of the timed phase.
type churnRun struct {
	c     *churnStore
	keys  map[string]*keyState
	spans *spanLog
	root  int
	v0    time.Time

	mu       sync.Mutex
	put      sampleSet // virtual ms, due -> ack
	get      sampleSet // virtual ms, due -> return
	rng      sampleSet
	errs     int
	stale    []string
	pending  int
	lateMax  time.Duration
	watchMu  sync.Mutex
	watchN   map[string]int // events seen per key
	watchMax map[string]int // highest seq seen per key
	watchBad []string       // out-of-order deliveries
}

func runMetadataChurn(cfg config, spans *spanLog, res *result) error {
	reqs := genChurn(cfg.seed, int(float64(cfg.seconds)*churnVSPerSecond*churnRate))
	traced := spans != nil
	var setups []float64
	var c *churnStore
	for k := 0; k < setupRepeats; k++ {
		w0 := wallNow()
		id := spans.begin("setup", "", 0)
		cs, err := bootChurn(traced)
		spans.end(id, err)
		if err != nil {
			return err
		}
		setups = append(setups, wallSince(w0).Seconds())
		if k < setupRepeats-1 {
			cs.close()
			continue
		}
		c = cs
	}
	defer c.close()
	res.e2e("setup_s", median(setups), "s", len(setups))

	r := &churnRun{c: c, spans: spans, keys: map[string]*keyState{},
		watchN: map[string]int{}, watchMax: map[string]int{}}
	for j := 0; j < churnJobs; j++ {
		for l := 0; l < churnLearners; l++ {
			r.keys[churnKey(j, l)] = &keyState{}
		}
	}
	var before metrics.Export
	var clockBefore map[string]uint64
	if traced {
		before = c.reg.Export()
		clockBefore = c.cc.snapshot()
	}
	r.root = spans.begin("metadata-churn", "", 0)
	events, cancel := c.s.Watch(churnPrefix)
	stopWatch := make(chan struct{})
	watchDone := make(chan struct{})
	go r.consume(events, stopWatch, watchDone)

	meter := startPhase()
	r.v0 = c.clk.Now()
	r.dispatch(reqs, runDeadline)
	r.awaitWatch()
	rd := meter.read(c.clk.Since(r.v0))
	rd.report(res)
	res.e2e("sim_speed", rd.speed(), "vs/s", 0)
	close(stopWatch)
	<-watchDone
	cancel()
	spans.end(r.root, nil)

	r.score(reqs, res)
	if traced {
		calls := c.cc.snapshot()
		for k, v := range clockBefore {
			calls[k] -= v
		}
		etcdWall := map[string]*sampleSet{
			"put":   spans.durationsUS("etcd.Put"),
			"get":   spans.durationsUS("etcd.Get"),
			"range": spans.durationsUS("etcd.Range"),
		}
		writes := r.put.n()
		seen := 0
		r.watchMu.Lock()
		for _, n := range r.watchN {
			seen += n
		}
		r.watchMu.Unlock()
		recordLayers(res, layerInput{
			phase: rd, jobs: churnJobs,
			before: before, after: c.reg.Export(),
			clockCalls: calls, pendingMax: r.pending,
			etcdWallUS:    etcdWall,
			watchPerWrite: safeDiv(float64(seen), float64(writes)),
		})
	}
	return nil
}

// dispatch starts every request when it is due and waits for all of
// them to finish. Requests whose due time has already passed start
// without sleeping, so a stalled dispatcher shows up as lateness.
func (r *churnRun) dispatch(reqs []churnReq, wallDeadline time.Time) {
	var wg sync.WaitGroup
	for i, q := range reqs {
		if wallNow().After(wallDeadline) {
			break
		}
		due := r.v0.Add(q.due)
		if d := due.Sub(r.c.clk.Now()); d > 0 {
			r.c.clk.Sleep(d)
		}
		if late := r.c.clk.Now().Sub(due); late > r.lateMax {
			r.lateMax = late
		}
		if r.c.cc != nil {
			if p := r.c.sim.PendingEvents(); p > r.pending {
				r.pending = p
			}
		}
		wg.Add(1)
		go func(i int, q churnReq, due time.Time) {
			defer wg.Done()
			r.serve(i, q, due)
		}(i, q, due)
	}
	wg.Wait()
}

func (r *churnRun) serve(i int, q churnReq, due time.Time) {
	req := fmt.Sprintf("req-%d", i)
	clk := r.c.clk
	switch q.kind {
	case 'p':
		key := churnKey(q.job, q.learner)
		ks := r.keys[key]
		ks.writeMu.Lock()
		seq := ks.seq + 1
		err := r.spans.timed("etcd.Put", req, r.root, func() error {
			_, err := r.c.s.Put(key, churnValue(seq))
			return err
		})
		at := clk.Now()
		if err == nil {
			ks.seq = seq
			ks.mu.Lock()
			ks.acks = append(ks.acks, churnAck{at: at, seq: seq})
			ks.mu.Unlock()
		}
		ks.writeMu.Unlock()
		r.record(&r.put, at.Sub(due), err)
	case 'g':
		key := churnKey(q.job, q.learner)
		var val string
		var found bool
		err := r.spans.timed("etcd.Get", req, r.root, func() error {
			var err error
			val, found, err = r.c.s.Get(key)
			return err
		})
		r.record(&r.get, clk.Now().Sub(due), err)
		if err == nil {
			r.checkRead(key, val, found, due)
		}
	case 'r':
		prefix := churnPrefix + churnJobID(q.job) + "/"
		var kvs []etcd.KV
		err := r.spans.timed("etcd.Range", req, r.root, func() error {
			var err error
			kvs, err = r.c.s.Range(prefix)
			return err
		})
		r.record(&r.rng, clk.Now().Sub(due), err)
		if err != nil {
			return
		}
		if len(kvs) != churnLearners {
			r.flagStale(fmt.Sprintf("Range %s returned %d keys, want %d", prefix, len(kvs), churnLearners))
		}
		for _, kv := range kvs {
			r.checkRead(kv.Key, kv.Value, true, due)
		}
	}
}

func (r *churnRun) record(s *sampleSet, lat time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.add(float64(lat) / float64(time.Millisecond))
	if err != nil {
		r.errs++
	}
}

// checkRead fails a read that returned a status older than the newest
// update acknowledged before the read was due.
func (r *churnRun) checkRead(key, val string, found bool, due time.Time) {
	ks, ok := r.keys[key]
	if !ok {
		r.flagStale(fmt.Sprintf("read returned unknown key %s", key))
		return
	}
	seq, ok := churnSeq(val)
	if !found || !ok {
		r.flagStale(fmt.Sprintf("read of %s returned %q (found %t)", key, val, found))
		return
	}
	if want := ks.newestAckedBefore(due); seq < want {
		r.flagStale(fmt.Sprintf("stale read of %s: seq %d, newest acknowledged before due %d", key, seq, want))
	}
}

func (r *churnRun) flagStale(msg string) {
	r.mu.Lock()
	r.stale = append(r.stale, msg)
	r.mu.Unlock()
}

// consume records every watch event until stopped.
func (r *churnRun) consume(events <-chan etcd.Event, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	for {
		select {
		case <-stop:
			return
		case ev, open := <-events:
			if !open {
				return
			}
			seq, ok := churnSeq(ev.Value)
			r.watchMu.Lock()
			if !ok || seq <= r.watchMax[ev.Key] && r.watchN[ev.Key] > 0 {
				r.watchBad = append(r.watchBad, fmt.Sprintf("watch on %s: seq %q after %d", ev.Key, ev.Value, r.watchMax[ev.Key]))
			}
			r.watchN[ev.Key]++
			if seq > r.watchMax[ev.Key] {
				r.watchMax[ev.Key] = seq
			}
			r.watchMu.Unlock()
		}
	}
}

// watchCaughtUp reports whether the watch has seen every acknowledged
// update of every key.
func (r *churnRun) watchCaughtUp() bool {
	r.watchMu.Lock()
	defer r.watchMu.Unlock()
	for key, ks := range r.keys {
		n, last := ks.acked()
		if r.watchN[key] < n || r.watchMax[key] < last {
			return false
		}
	}
	return true
}

// awaitWatch gives the watch consumer up to churnWatchGrace of virtual
// time to deliver the last acknowledged updates.
func (r *churnRun) awaitWatch() {
	deadline := r.c.clk.Now().Add(churnWatchGrace)
	for !r.watchCaughtUp() && r.c.clk.Now().Before(deadline) {
		r.c.clk.Sleep(10 * time.Millisecond)
	}
}

// score checks the run's outputs and records the end-to-end metrics.
func (r *churnRun) score(reqs []churnReq, res *result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	done := r.put.n() + r.get.n() + r.rng.n()
	res.check(done == len(reqs), "%d of %d requests ran", done, len(reqs))
	// Every request is a checked output: it must succeed, and a read must
	// not be stale.
	res.attempt(done)
	for k := 0; k < r.errs; k++ {
		res.fail("etcd request failed")
	}
	for _, s := range r.stale {
		res.fail("%s", s)
	}
	r.watchMu.Lock()
	for _, b := range r.watchBad {
		res.fail("%s", b)
	}
	missing := 0
	for key, ks := range r.keys {
		n, last := ks.acked()
		if r.watchN[key] < n || r.watchMax[key] < last {
			missing++
		}
	}
	r.watchMu.Unlock()
	res.check(missing == 0, "watch missed acknowledged updates on %d keys", missing)

	var read sampleSet
	read.vals = append(append(read.vals, r.get.vals...), r.rng.vals...)
	res.e2e("latency_p50_ms", r.put.quantile(0.5), "ms", r.put.n())
	tail(res, "put", &r.put, "ms")
	tail(res, "read", &read, "ms")
	res.e2e("generator_late_max_ms", float64(r.lateMax)/float64(time.Millisecond), "ms", len(reqs))
}
