// Package etcd provides a replicated, linearizable key-value store built
// on the Raft implementation in internal/raft. It stands in for the 3-way
// replicated etcd cluster that DLaaS uses to coordinate the Helper
// controller and the Guardian ("we employ the ETCD key-value store to
// co-ordinate between the controller and LCM/Guardian... ETCD itself is
// replicated (3-way), and uses the Raft consensus protocol").
//
// Writes are sequenced through the Raft log. Reads are served, in the
// default leaseread mode, from the least-loaded replica's MVCC snapshot
// at an applied floor the leader vouches for — via its check-quorum
// lease when live (zero messages per read) or a coalesced quorum
// heartbeat round otherwise (one round resolves every read in flight
// during it) — linearizable results with zero log entries per read.
// SetReadMode selects the readindex hatch (one dedicated round per
// read, the pre-lease behavior), the propose hatch (reads as full
// proposals), or serializable mode (stale-tolerant local reads that
// need no quorum). Watches observe the apply stream and survive the
// crash of any minority of nodes.
//
// Since the metadata-plane refactor this package is a facade over the
// sharded MVCC engine in internal/store: each replica's deterministic
// state machine is a store.Engine in external-revision mode (the Raft
// log index is the revision), watch delivery goes through a store.Hub
// whose revision cursor dedupes the per-replica apply streams, and the
// client-side request plumbing (request IDs, waiter completion) uses
// striped maps — there is no store-wide mutex on the request path; the
// remaining Store.mu only guards node lifecycle (crash/restart/close).
package etcd

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/raft"
	"repro/internal/store"
)

// Common errors.
var (
	// ErrTimeout indicates the operation did not commit before the
	// deadline (no leader, or this client is partitioned).
	ErrTimeout = errors.New("etcd: request timed out")
	// ErrCASFailed indicates the compare-and-swap precondition failed.
	ErrCASFailed = errors.New("etcd: compare failed")
	// ErrClosed indicates the store has been shut down.
	ErrClosed = errors.New("etcd: store closed")
	// ErrCompacted indicates a WatchFrom start revision predates the
	// replicas' retained MVCC history: the consumer cannot resume
	// exactly and must fall back to Range + Watch from the present. It
	// aliases store.ErrCompacted so errors.Is works across layers.
	ErrCompacted = store.ErrCompacted
)

// EventType distinguishes watch events.
type EventType int

// Watch event kinds.
const (
	EventPut EventType = iota + 1
	EventDelete
)

// String implements fmt.Stringer.
func (e EventType) String() string {
	switch e {
	case EventPut:
		return "PUT"
	case EventDelete:
		return "DELETE"
	default:
		return fmt.Sprintf("event(%d)", int(e))
	}
}

// Event is a single change notification.
type Event struct {
	Type  EventType
	Key   string
	Value string
	// Rev is the Raft log index that produced the event.
	Rev uint64
}

// EventKey implements store.Keyed for hub dispatch.
func (e Event) EventKey() string { return e.Key }

// EventRev implements store.Keyed for hub dispatch.
func (e Event) EventRev() uint64 { return e.Rev }

// KV is a key with its value and last-modification revision.
type KV struct {
	Key   string
	Value string
	Rev   uint64
}

// opKind enumerates commands in the replicated log.
type opKind string

const (
	opPut    opKind = "put"
	opDelete opKind = "delete"
	opCAS    opKind = "cas"
	opGet    opKind = "get"
	opRange  opKind = "range"
	opTxn    opKind = "txn"
	// opBatch is a group-commit wrapper: one log entry carrying the
	// sub-commands of every propose() call that queued while the
	// previous batch's round was in flight. All sub-commands apply at
	// the wrapper's single log index (one revision).
	opBatch opKind = "batch"
)

// Cmp is a transaction guard, with the same semantics as
// CompareAndSwap's precondition: when PrevExists the key must exist with
// value Prev; otherwise the key must be absent.
type Cmp struct {
	Key        string `json:"key"`
	Prev       string `json:"prev,omitempty"`
	PrevExists bool   `json:"prev_exists,omitempty"`
}

// TxnOp is one mutation inside a transaction branch.
type TxnOp struct {
	// Type is EventPut or EventDelete.
	Type  EventType `json:"type"`
	Key   string    `json:"key"`
	Value string    `json:"value,omitempty"`
}

// command is the JSON-encoded payload of a Raft entry.
type command struct {
	ReqID string `json:"req_id"`
	Op    opKind `json:"op"`
	Key   string `json:"key,omitempty"`
	Value string `json:"value,omitempty"`
	// Prev is the expected current value for CAS ("" means
	// must-not-exist when PrevExists is false).
	Prev       string  `json:"prev,omitempty"`
	PrevExists bool    `json:"prev_exists,omitempty"`
	Cmps       []Cmp   `json:"cmps,omitempty"`
	Then       []TxnOp `json:"then,omitempty"`
	Else       []TxnOp `json:"else,omitempty"`
	// Subs are the sub-commands of an opBatch wrapper, applied in order.
	Subs []command `json:"subs,omitempty"`
}

// result is what applying a command yields (deterministic on every node).
type result struct {
	val    string
	found  bool
	ok     bool // CAS success / txn branch taken
	kvs    []KV
	rev    uint64
	events []Event
}

// Read modes selectable via SetReadMode.
const (
	// ReadModeLease (the default) serves Get/Range/read-only Txn
	// linearizably at amortized quorum cost: concurrent leader
	// confirmation rounds coalesce (one heartbeat round resolves every
	// read in flight during it), and while the leader's check-quorum
	// lease is live reads cost zero messages. Skew beyond the raft
	// drift bound, step-down, or term change kill the lease and reads
	// fall back to full rounds — never to staleness.
	ReadModeLease = "leaseread"
	// ReadModeReadIndex serves reads from a local replica's MVCC
	// snapshot after a dedicated leader read-index round: linearizable,
	// zero log entries, exactly one heartbeat round per read — the
	// pre-lease behavior, kept as the oracle lease reads are checked
	// against.
	ReadModeReadIndex = "readindex"
	// ReadModeSerializable answers from the freshest live replica's
	// local state with no leadership round at all: bounded staleness
	// (the replica may lag acknowledged writes), never wrongness (only
	// committed entries are applied). Stays available without a quorum.
	ReadModeSerializable = "serializable"
)

// Write modes selectable at construction (StoreOptions.WriteMode).
const (
	// WriteModeBatch (the default) coalesces concurrent writes into one
	// batched log entry per replication round — group commit. A batch
	// flushes as soon as the previous round's entry applies; under no
	// concurrency every batch holds one command, so there is no added
	// latency.
	WriteModeBatch = "batch"
	// WriteModeSingle proposes every write as its own log entry — the
	// pre-batching behavior, kept as the oracle group commit is checked
	// against.
	WriteModeSingle = "single"
)

// Replication modes selectable at construction
// (StoreOptions.Replication); they map onto raft.Config's pipeline
// window.
const (
	// ReplicationPipeline (the default) keeps a bounded in-flight window
	// of AppendEntries per follower, advancing optimistically and
	// rewinding on reject.
	ReplicationPipeline = "pipeline"
	// ReplicationStopWait re-ships the full pending log suffix every
	// broadcast and advances only on acks — the pre-pipelining behavior,
	// kept as the oracle pipelining is checked against.
	ReplicationStopWait = "stopwait"
)

// defaultRequestTimeout bounds how long a client op waits for commit.
const defaultRequestTimeout = 5 * time.Second

// proposeWait is how long one proposal waits for its apply before
// re-proposing (leadership may have changed and the entry been lost).
const proposeWait = 500 * time.Millisecond

// readIndexWait bounds one leader read-index round; the read path
// retries rounds until the request deadline.
const readIndexWait = 500 * time.Millisecond

// retryPause is the backoff between read/propose retries while the
// cluster has no reachable leader.
const retryPause = 20 * time.Millisecond

// defaultCompactEvery is how many applied entries a node accumulates
// before snapshotting its state machine and compacting the Raft log.
const defaultCompactEvery = 1000

// waiterStripes is the size of the striped waiter table; striping keeps
// request registration and completion off any store-wide lock.
const waiterStripes = 64

// waiterStripe is one lock shard of the in-flight request table.
type waiterStripe struct {
	mu sync.Mutex
	m  map[string]chan result
}

// opCounter tallies one operation kind, successes and failures apart:
// a timed-out Range must not inflate the ranges-per-job count.
type opCounter struct {
	ok   atomic.Uint64
	fail atomic.Uint64
}

// replicaLoad tracks one replica's read traffic for least-loaded
// routing: inflight is the gauge routing reads against, routed the
// cumulative dispatch count.
type replicaLoad struct {
	inflight atomic.Int64
	routed   atomic.Uint64
}

// Store is a handle to the replicated KV cluster.
type Store struct {
	clk     clock.Clock
	cluster *raft.Cluster
	timeout time.Duration
	shards  int

	compactEvery atomic.Int64
	reqSeq       atomic.Uint64
	closed       atomic.Bool
	stopCh       chan struct{}
	readMode     atomic.Value // string; one of the ReadMode constants
	writeMode    string       // fixed at construction
	replication  string       // fixed at construction

	// Group-commit state: writers append to batchQ and kick the flusher,
	// which drains the queue into one opBatch entry per replication
	// round. batchSeq numbers wrapper request IDs; batches/batchedCmds
	// feed the batch-occupancy metric.
	batchMu     sync.Mutex
	batchQ      []command
	batchKick   chan struct{}
	batchSeq    atomic.Uint64
	batches     atomic.Uint64
	batchedCmds atomic.Uint64

	// Client-operation counters, split by kind: the control plane's
	// cost is measured by how many Range scans it spends per job.
	cRange, cPut, cGet, cDelete, cCAS, cTxn, cWatch opCounter

	// proposals counts entries actually submitted to the Raft log;
	// reads in every mode leave it untouched.
	proposals atomic.Uint64

	// leaderCache short-circuits the per-op leader scan; dropLeader
	// invalidates it on any leader-side failure. readLoads carries the
	// fixed-membership per-replica routing gauges and counters; routeRR
	// rotates tie-breaks so idle read traffic spreads across replicas.
	leaderCache atomic.Pointer[raft.Node]
	readLoads   map[int]*replicaLoad
	routeRR     atomic.Uint64

	mtr atomic.Pointer[metrics.Registry]

	waiters [waiterStripes]waiterStripe
	hub     *store.Hub[Event]

	// mu guards replica lifecycle only (cold path).
	mu    sync.Mutex
	sms   map[int]*stateMachine
	stops map[int]chan struct{}
}

// StoreOptions configures a Store beyond the defaults.
type StoreOptions struct {
	// Shards is the per-replica engine shard count (<= 0 = default).
	Shards int
	// WriteMode is WriteModeBatch (default) or WriteModeSingle.
	WriteMode string
	// Replication is ReplicationPipeline (default) or
	// ReplicationStopWait. Fixed for the cluster's lifetime.
	Replication string
}

// New boots an n-way replicated store on clk. The paper's deployment uses
// n = 3.
func New(n int, clk clock.Clock) *Store { return NewSharded(n, clk, 0) }

// NewSharded boots an n-way replicated store whose per-replica state
// machines use the given engine shard count (<= 0 selects the store
// default).
func NewSharded(n int, clk clock.Clock, shards int) *Store {
	s, err := NewWithOptions(n, clk, StoreOptions{Shards: shards})
	if err != nil {
		panic(err) // unreachable: default options are valid
	}
	return s
}

// NewWithOptions boots an n-way replicated store with explicit write and
// replication modes. It fails on an unknown mode string.
func NewWithOptions(n int, clk clock.Clock, o StoreOptions) (*Store, error) {
	switch o.WriteMode {
	case "":
		o.WriteMode = WriteModeBatch
	case WriteModeBatch, WriteModeSingle:
	default:
		return nil, fmt.Errorf("etcd: unknown write mode %q", o.WriteMode)
	}
	cfg := raft.DefaultConfig(clk)
	switch o.Replication {
	case "", ReplicationPipeline:
		o.Replication = ReplicationPipeline
	case ReplicationStopWait:
		cfg.MaxInflightEntries = 1
	default:
		return nil, fmt.Errorf("etcd: unknown replication mode %q", o.Replication)
	}
	s := &Store{
		clk:         clk,
		cluster:     raft.NewCluster(n, cfg),
		timeout:     defaultRequestTimeout,
		shards:      o.Shards,
		writeMode:   o.WriteMode,
		replication: o.Replication,
		stopCh:      make(chan struct{}),
		batchKick:   make(chan struct{}, 1),
		hub:         store.NewHub[Event](),
		sms:         make(map[int]*stateMachine, n),
		stops:       make(map[int]chan struct{}, n),
	}
	s.readLoads = make(map[int]*replicaLoad, n)
	for _, id := range s.cluster.IDs() {
		s.readLoads[id] = &replicaLoad{}
	}
	s.compactEvery.Store(defaultCompactEvery)
	s.readMode.Store(ReadModeLease) // matches raft's lease/coalesce defaults
	for i := range s.waiters {
		s.waiters[i].m = make(map[string]chan result)
	}
	for _, id := range s.cluster.IDs() {
		s.startApplier(id)
	}
	go s.batchLoop()
	return s, nil
}

// SetReadMode selects how Get, Range and read-only Txn are served
// ("" selects the default, ReadModeLease). Writes always go through
// the Raft log regardless of mode. Switching modes also flips the raft
// lease/coalescing switches cluster-wide, so ReadModeReadIndex is the
// exact one-heartbeat-round-per-read PR 5 baseline.
func (s *Store) SetReadMode(mode string) error {
	switch mode {
	case "":
		mode = ReadModeLease
	case ReadModeLease, ReadModeReadIndex, ReadModeSerializable:
	default:
		return fmt.Errorf("etcd: unknown read mode %q", mode)
	}
	s.readMode.Store(mode)
	amortized := mode == ReadModeLease
	s.cluster.SetLeaseReads(amortized)
	s.cluster.SetReadCoalescing(amortized)
	return nil
}

// ReadMode reports the store's current read mode.
func (s *Store) ReadMode() string {
	return s.readMode.Load().(string)
}

// WriteMode reports the store's write mode (fixed at boot).
func (s *Store) WriteMode() string { return s.writeMode }

// Replication reports the cluster's replication mode (fixed at boot).
func (s *Store) Replication() string { return s.replication }

// BatchStats reports how many group-commit batches were proposed and how
// many client commands they carried; cmds/batches is the mean batch
// occupancy.
func (s *Store) BatchStats() (batches, cmds uint64) {
	return s.batches.Load(), s.batchedCmds.Load()
}

// ReplicationStats returns per-node Raft replication counters
// (appends, entries-per-append, rejects, snapshot chunks).
func (s *Store) ReplicationStats() map[int]raft.ReplicationStats {
	return s.cluster.ReplicationStats()
}

// SetNodeDelay adds extra one-way latency to every raft message
// addressed to node id (a slow follower); non-positive d removes it.
func (s *Store) SetNodeDelay(id int, d time.Duration) {
	s.cluster.Transport().SetNodeDelay(id, d)
}

// SetCompactEvery overrides the per-node log-compaction threshold
// (entries applied between snapshots). Intended for tests and benches.
func (s *Store) SetCompactEvery(n int) {
	if n > 0 {
		s.compactEvery.Store(int64(n))
	}
}

// Close shuts down the cluster and all watchers.
func (s *Store) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.mu.Lock()
	stops := s.stops
	s.stops = map[int]chan struct{}{}
	s.mu.Unlock()

	for _, st := range stops {
		close(st)
	}
	close(s.stopCh)
	s.cluster.Stop()
	s.hub.Close()
}

// Instrument publishes the facade's operational metrics into reg: the
// watch hub's queue depth, per-replica engine metrics (shard commits,
// history drops), and client-operation counts. Call before serving.
func (s *Store) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	s.mtr.Store(reg)
	s.hub.Instrument(reg, "etcd")
	s.cluster.Instrument(reg)
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, sm := range s.sms {
		sm.instrument(reg, fmt.Sprintf("etcd-node%d", id))
	}
}

// finishOp tallies one completed client operation of the given kind.
// Successes and failures are counted apart — counting before the
// attempt would inflate RangeOps with ops that then timed out.
// Operations that went through the log but lost their application-level
// race (CAS conflict, Txn else-branch) completed successfully for
// accounting purposes.
func (s *Store) finishOp(kind string, c *opCounter, err error) {
	if err != nil {
		c.fail.Add(1)
		if reg := s.mtr.Load(); reg != nil {
			reg.Inc("etcd_client_op_fails", kind)
		}
		return
	}
	c.ok.Add(1)
	if reg := s.mtr.Load(); reg != nil {
		reg.Inc("etcd_client_ops", kind)
	}
}

// RangeOps reports how many Range scans clients have completed — the
// control plane's ranges-per-job cost.
func (s *Store) RangeOps() uint64 { return s.cRange.ok.Load() }

// Proposals reports how many commands were submitted to the Raft log.
// Reads leave it untouched.
func (s *Store) Proposals() uint64 { return s.proposals.Load() }

// OpCounts reports every client-operation counter by kind; "<kind>" is
// completed operations, "<kind>_fail" timed-out or rejected ones.
func (s *Store) OpCounts() map[string]uint64 {
	out := make(map[string]uint64, 14)
	for kind, c := range map[string]*opCounter{
		"range": &s.cRange, "put": &s.cPut, "get": &s.cGet,
		"delete": &s.cDelete, "cas": &s.cCAS, "txn": &s.cTxn, "watch": &s.cWatch,
	} {
		out[kind] = c.ok.Load()
		out[kind+"_fail"] = c.fail.Load()
	}
	return out
}

// PartitionNode isolates raft node id from the rest of the cluster
// (messages both ways are dropped) until HealNode. Unlike CrashNode the
// node and its applier keep running — this is the knife the stale-leader
// and linearizability chaos tests cut with.
func (s *Store) PartitionNode(id int) { s.cluster.Transport().Partition(id) }

// HealNode reconnects a partitioned node.
func (s *Store) HealNode(id int) { s.cluster.Transport().Heal(id) }

// startApplier builds a state machine for node id — restored from the
// node's persisted snapshot if it has one — and pumps its apply channel,
// compacting the Raft log periodically.
func (s *Store) startApplier(id int) {
	node := s.cluster.Node(id)
	if node == nil {
		return
	}
	sm := newStateMachine(s.shards)
	if reg := s.mtr.Load(); reg != nil {
		sm.instrument(reg, fmt.Sprintf("etcd-node%d", id))
	}
	if snap, idx := node.Snapshot(); idx > 0 {
		sm.restore(snap, idx)
		s.hub.Publish(idx, nil) // advance the delivery cursor past the image
	}
	stop := make(chan struct{})
	s.mu.Lock()
	s.sms[id] = sm
	s.stops[id] = stop
	s.mu.Unlock()
	go func() {
		applied := 0
		for {
			select {
			case <-stop:
				return
			case a := <-node.ApplyCh():
				if a.IsSnapshot {
					// The leader fast-forwarded this lagging node.
					sm.restore(a.Snapshot, a.SnapIndex)
					s.hub.Publish(a.SnapIndex, nil)
					applied = 0
					continue
				}
				s.applyEntry(sm, a.Entry)
				applied++
				if applied >= int(s.compactEvery.Load()) {
					_ = node.Compact(a.Entry.Index, sm.serialize())
					applied = 0
				}
			}
		}
	}()
}

// applyEntry applies one committed entry to a replica's state machine,
// completes the client waiter, and hands the entry's events to the hub,
// whose revision cursor delivers each log index exactly once no matter
// how many replicas apply it.
func (s *Store) applyEntry(sm *stateMachine, e raft.Entry) {
	if len(e.Cmd) == 0 {
		// Raft-internal no-op (the read-index term barrier): it still
		// occupies a log index, so advance the applied floor — read-index
		// waits stall below it otherwise — and the hub's delivery cursor.
		sm.advance(e.Index)
		s.hub.Publish(e.Index, nil)
		return
	}
	var cmd command
	if err := json.Unmarshal(e.Cmd, &cmd); err != nil {
		// Corrupt entry: a deterministic no-op on every node, but its
		// index must not leave a hole under the floor or the cursor.
		sm.advance(e.Index)
		s.hub.Publish(e.Index, nil)
		return
	}
	if cmd.Op == opBatch {
		s.applyBatchEntry(sm, e.Index, cmd)
		return
	}
	res := sm.apply(e.Index, cmd)

	// Publish before completing the waiter: once the client's call
	// returns, the entry's revision is already past the hub's delivery
	// cursor, so a Watch opened after an acknowledged write can never be
	// handed that write's own events ("events begin with the first
	// revision applied after the call").
	s.hub.Publish(e.Index, res.events)

	// Complete the client waiter (first applier wins; all produce the
	// same deterministic result).
	if ch, ok := s.takeWaiter(cmd.ReqID); ok {
		select {
		case ch <- res:
		default:
		}
	}
}

// applyBatchEntry unpacks a group-commit wrapper: every sub-command
// applies in order at the wrapper's single log index, the concatenated
// events publish once for that index (the hub cursor demands exactly one
// publish per revision), and each sub-command's waiter fires on its own
// ReqID. The wrapper's waiter releases the flusher's round.
func (s *Store) applyBatchEntry(sm *stateMachine, idx uint64, batch command) {
	results, events := sm.applyBatch(idx, batch.Subs)

	// Publish before completing waiters, for the same watch-visibility
	// ordering as single commands.
	s.hub.Publish(idx, events)

	for i, sub := range batch.Subs {
		if ch, ok := s.takeWaiter(sub.ReqID); ok {
			select {
			case ch <- results[i]:
			default:
			}
		}
	}
	if ch, ok := s.takeWaiter(batch.ReqID); ok {
		select {
		case ch <- result{rev: idx, ok: true}:
		default:
		}
	}
}

// stripeFor hashes a request ID to its waiter stripe.
func stripeFor(reqID string) int {
	return int(store.Hash32(reqID) % waiterStripes)
}

func (s *Store) putWaiter(reqID string, ch chan result) {
	st := &s.waiters[stripeFor(reqID)]
	st.mu.Lock()
	st.m[reqID] = ch
	st.mu.Unlock()
}

func (s *Store) takeWaiter(reqID string) (chan result, bool) {
	st := &s.waiters[stripeFor(reqID)]
	st.mu.Lock()
	ch, ok := st.m[reqID]
	if ok {
		delete(st.m, reqID)
	}
	st.mu.Unlock()
	return ch, ok
}

// Put stores value under key.
func (s *Store) Put(key, value string) (rev uint64, err error) {
	res, err := s.propose(command{Op: opPut, Key: key, Value: value})
	s.finishOp("put", &s.cPut, err)
	if err != nil {
		return 0, fmt.Errorf("put %q: %w", key, err)
	}
	return res.rev, nil
}

// Get returns the value stored under key. found reports existence. In
// the lease and read-index modes the read is linearizable; in
// serializable mode it may lag acknowledged writes.
func (s *Store) Get(key string) (value string, found bool, err error) {
	res, err := s.read(s.ReadMode(), command{Op: opGet, Key: key})
	s.finishOp("get", &s.cGet, err)
	if err != nil {
		return "", false, fmt.Errorf("get %q: %w", key, err)
	}
	return res.val, res.found, nil
}

// Delete removes key. It is not an error to delete a missing key.
func (s *Store) Delete(key string) error {
	_, err := s.propose(command{Op: opDelete, Key: key})
	s.finishOp("delete", &s.cDelete, err)
	if err != nil {
		return fmt.Errorf("delete %q: %w", key, err)
	}
	return nil
}

// CompareAndSwap atomically replaces key's value with newValue iff the
// current value equals prev (prevExists=false means "key must not
// exist"). Returns ErrCASFailed when the precondition does not hold.
func (s *Store) CompareAndSwap(key, prev string, prevExists bool, newValue string) error {
	res, err := s.propose(command{
		Op: opCAS, Key: key, Value: newValue, Prev: prev, PrevExists: prevExists,
	})
	s.finishOp("cas", &s.cCAS, err)
	if err != nil {
		return fmt.Errorf("cas %q: %w", key, err)
	}
	if !res.ok {
		return ErrCASFailed
	}
	return nil
}

// Txn atomically evaluates cmps against the current state and applies
// then (all guards hold) or orElse (any guard fails) in a single log
// entry: the branch's mutations commit at one revision, and watchers see
// them together. succeeded reports which branch ran. A read-only
// transaction (both branches empty) is served through the store's read
// mode — guard evaluation against one local snapshot revision, no log
// entry — since there is nothing to sequence.
func (s *Store) Txn(cmps []Cmp, then, orElse []TxnOp) (succeeded bool, rev uint64, err error) {
	var res result
	if len(then) == 0 && len(orElse) == 0 {
		res, err = s.read(s.ReadMode(), command{Op: opTxn, Cmps: cmps})
	} else {
		res, err = s.propose(command{Op: opTxn, Cmps: cmps, Then: then, Else: orElse})
	}
	s.finishOp("txn", &s.cTxn, err)
	if err != nil {
		return false, 0, fmt.Errorf("txn: %w", err)
	}
	return res.ok, res.rev, nil
}

// Range returns all keys under prefix, sorted by key.
func (s *Store) Range(prefix string) ([]KV, error) {
	res, err := s.read(s.ReadMode(), command{Op: opRange, Key: prefix})
	s.finishOp("range", &s.cRange, err)
	if err != nil {
		return nil, fmt.Errorf("range %q: %w", prefix, err)
	}
	return res.kvs, nil
}

// SerializableRange is Range forced through serializable mode whatever
// the store default: a stale-tolerant local read that costs no
// consensus work and stays available without a quorum. Consumers that
// re-run on a backstop cadence against idempotent actions (the LCM's GC
// sweep) opt into it.
func (s *Store) SerializableRange(prefix string) ([]KV, error) {
	res, err := s.read(ReadModeSerializable, command{Op: opRange, Key: prefix})
	s.finishOp("range", &s.cRange, err)
	if err != nil {
		return nil, fmt.Errorf("range %q: %w", prefix, err)
	}
	return res.kvs, nil
}

// Watch subscribes to changes of keys under prefix. Cancel releases the
// subscription. Events begin with the first revision applied after the
// call.
func (s *Store) Watch(prefix string) (events <-chan Event, cancel func()) {
	s.finishOp("watch", &s.cWatch, nil)
	return s.hub.Watch(prefix)
}

// WatchFrom subscribes to changes of keys under prefix starting after
// startRev: every event with revision (Raft index) > startRev is
// delivered exactly once, in order — events committed before the call
// are backfilled from a replica's bounded MVCC version history, then
// the stream continues live. It fails with ErrCompacted when the
// retained history no longer reaches back to startRev (log compaction
// or a snapshot restore dropped the window); the consumer then falls
// back to Range + Watch from the present. This is the resume contract
// the Guardian uses to pick up exactly where a crashed predecessor
// left off.
func (s *Store) WatchFrom(prefix string, startRev uint64) (<-chan Event, func(), error) {
	ch, cancel, err := s.watchFrom(prefix, startRev)
	s.finishOp("watch", &s.cWatch, err)
	return ch, cancel, err
}

func (s *Store) watchFrom(prefix string, startRev uint64) (<-chan Event, func(), error) {
	if s.closed.Load() {
		return nil, nil, ErrClosed
	}
	ch, cancel, cursor := s.hub.WatchCursor(prefix)
	if startRev == cursor {
		return ch, cancel, nil
	}
	var backfill []Event
	if startRev < cursor {
		sm := s.replicaAt(cursor)
		if sm == nil {
			cancel()
			return nil, nil, fmt.Errorf("etcd: watch %q from %d: %w: no live replica reaches revision %d",
				prefix, startRev, ErrCompacted, cursor)
		}
		var err error
		backfill, err = sm.historyEvents(prefix, startRev, cursor)
		if err != nil {
			cancel()
			return nil, nil, fmt.Errorf("etcd: watch %q from %d: %w", prefix, startRev, err)
		}
	}
	after := cursor
	if startRev > cursor {
		// Resuming from a revision the hub has not delivered yet (e.g. a
		// cursor saved by a faster replica): filter the overlap instead
		// of replaying it.
		after = startRev
	}
	out, stopSplice := store.SpliceEvents(backfill, ch, after, s.stopCh)
	var once sync.Once
	return out, func() { once.Do(func() { stopSplice(); cancel() }) }, nil
}

// replicaAt picks a live state machine whose applied floor covers rev,
// preferring the one with the deepest retained history (lowest resume
// floor). It waits briefly for an applier to catch up to the hub
// cursor — the cursor only advances after some replica applied rev, but
// that replica may have crashed since.
func (s *Store) replicaAt(rev uint64) *stateMachine {
	deadline := s.clk.Now().Add(2 * time.Second)
	for {
		var best *stateMachine
		var bestFloor uint64
		s.mu.Lock()
		for _, sm := range s.sms {
			eng := sm.engine()
			if eng.Snapshot() < rev {
				continue
			}
			if f := eng.ResumeFloor(); best == nil || f < bestFloor {
				best, bestFloor = sm, f
			}
		}
		s.mu.Unlock()
		if best != nil || !s.clk.Now().Before(deadline) || s.closed.Load() {
			return best
		}
		s.clk.Sleep(10 * time.Millisecond)
	}
}

// read serves a read-only command (opGet, opRange, or an opTxn with no
// mutations) in the given read mode. ReadModeLease and
// ReadModeReadIndex share the read-index path — the lease fast path and
// round coalescing live inside raft.Node.ReadIndex, toggled by
// SetReadMode.
func (s *Store) read(mode string, cmd command) (result, error) {
	if mode == ReadModeSerializable {
		return s.serializableRead(cmd)
	}
	return s.readIndexRead(cmd)
}

// readIndexRead serves cmd linearizably without a log entry: obtain a
// read index from the leader (a live check-quorum lease answers it for
// free; otherwise ReadIndex confirms leadership with a quorum heartbeat
// round, so a deposed leader can never answer), wait for a routed
// replica's state machine to apply through it, then read that local
// MVCC snapshot.
func (s *Store) readIndexRead(cmd command) (result, error) {
	deadline := s.clk.Now().Add(s.timeout)
	for {
		if s.closed.Load() {
			return result{}, ErrClosed
		}
		node := s.readNode()
		if node == nil {
			if !s.pause(deadline) {
				return result{}, ErrTimeout
			}
			continue
		}
		idx, err := node.ReadIndex(readIndexWait)
		if err != nil {
			// No leader, deposed mid-round, or no quorum answered: retry
			// against whoever leads next, bounded by the deadline.
			s.dropLeader()
			if !s.pause(deadline) {
				return result{}, ErrTimeout
			}
			continue
		}
		eng, ok := s.routedWait(idx, deadline)
		if !ok {
			if s.closed.Load() {
				return result{}, ErrClosed
			}
			return result{}, ErrTimeout
		}
		return readLocal(eng, cmd), nil
	}
}

// routeSlice bounds one applied-floor wait on a routed replica before
// re-routing: a partitioned or crashed replica stops applying, and its
// piling-up in-flight gauge steers later picks elsewhere while this
// read hops to a replica still making progress.
const routeSlice = 250 * time.Millisecond

// routedWait dispatches a read's applied-floor wait to the least-loaded
// live replica — follower read serving. Replicas already applied
// through idx are preferred (their wait costs nothing); ties rotate.
func (s *Store) routedWait(idx uint64, deadline time.Time) (*store.Engine, bool) {
	for {
		id, sm := s.routeReplica(idx)
		if sm == nil {
			if s.closed.Load() || !s.pause(deadline) {
				return nil, false
			}
			continue
		}
		ld := s.readLoads[id]
		ld.inflight.Add(1)
		ld.routed.Add(1)
		if reg := s.mtr.Load(); reg != nil {
			label := fmt.Sprintf("node%d", id)
			reg.Inc("etcd_reads_routed", label)
			reg.SetGauge("etcd_inflight_reads", float64(ld.inflight.Load()), label)
		}
		sliceEnd := s.clk.Now().Add(routeSlice)
		if sliceEnd.After(deadline) {
			sliceEnd = deadline
		}
		eng, ok := s.waitApplied(sm, idx, sliceEnd)
		ld.inflight.Add(-1)
		if ok {
			return eng, true
		}
		if s.closed.Load() || !s.clk.Now().Before(deadline) {
			return nil, false
		}
	}
}

// routeReplica picks the replica for one applied-floor wait: live,
// already-applied-through-idx replicas first, least in-flight load
// within a class, rotation breaking exact ties.
func (s *Store) routeReplica(idx uint64) (int, *stateMachine) {
	offset := int(s.routeRR.Add(1))
	ids := s.cluster.IDs()
	s.mu.Lock()
	defer s.mu.Unlock()
	bestID := -1
	var best *stateMachine
	var bestLoad int64
	var bestReady bool
	for i := 0; i < len(ids); i++ {
		id := ids[(i+offset)%len(ids)]
		sm := s.sms[id]
		if sm == nil {
			continue
		}
		ready := sm.engine().Snapshot() >= idx
		load := s.readLoads[id].inflight.Load()
		if best == nil || (ready && !bestReady) ||
			(ready == bestReady && load < bestLoad) {
			bestID, best, bestLoad, bestReady = id, sm, load, ready
		}
	}
	return bestID, best
}

// serializableRead serves cmd from a freshest live replica's local
// state, no leadership round: bounded staleness, never wrongness, and
// it stays available when the cluster has no quorum. Among equally
// fresh replicas the least read-loaded one serves (freshness first —
// trading it away would widen the staleness bound).
func (s *Store) serializableRead(cmd command) (result, error) {
	if s.closed.Load() {
		return result{}, ErrClosed
	}
	offset := int(s.routeRR.Add(1))
	ids := s.cluster.IDs()
	bestID := -1
	var best *store.Engine
	var bestFloor uint64
	var bestLoad int64
	s.mu.Lock()
	for i := 0; i < len(ids); i++ {
		id := ids[(i+offset)%len(ids)]
		sm := s.sms[id]
		if sm == nil {
			continue
		}
		eng := sm.engine()
		f := eng.Snapshot()
		load := s.readLoads[id].inflight.Load()
		if best == nil || f > bestFloor || (f == bestFloor && load < bestLoad) {
			bestID, best, bestFloor, bestLoad = id, eng, f, load
		}
	}
	s.mu.Unlock()
	if best == nil {
		return result{}, ErrTimeout // every replica crashed
	}
	s.readLoads[bestID].routed.Add(1)
	if reg := s.mtr.Load(); reg != nil {
		reg.Inc("etcd_reads_routed", fmt.Sprintf("node%d", bestID))
	}
	return readLocal(best, cmd), nil
}

// readLocal evaluates a read-only command against eng's applied state.
// Multi-key reads (opRange, guard evaluation) run at the engine's
// current floor — a fully-installed cut, since ApplyAt only raises the
// floor after a revision's ops are all in place — so a concurrently
// applying transaction is seen whole or not at all.
func readLocal(eng *store.Engine, cmd command) result {
	rev := eng.Snapshot()
	res := result{rev: rev}
	switch cmd.Op {
	case opGet:
		if v, _, ok := eng.Get(cmd.Key); ok {
			res.val, _ = v.(string)
			res.found = true
		}
	case opRange:
		kvs, err := eng.ScanAt(cmd.Key, rev)
		if err != nil {
			// rev fell below a compaction floor between Snapshot and the
			// scan (not reachable in facade engines, which never compact
			// in place): fall forward to the newest versions.
			kvs = eng.ScanLatest(cmd.Key)
		}
		for _, kv := range kvs {
			val, _ := kv.Value.(string)
			res.kvs = append(res.kvs, KV{Key: kv.Key, Value: val, Rev: kv.Rev})
		}
	case opTxn:
		res.ok = true
		for _, c := range cmd.Cmps {
			v, _, exists, err := eng.GetAt(c.Key, rev)
			if err != nil {
				v, _, exists = eng.Get(c.Key)
			}
			sv, _ := v.(string)
			if exists != c.PrevExists || (exists && sv != c.Prev) {
				res.ok = false
				break
			}
		}
	}
	return res
}

// leader resolves the current leader through a cached pointer: the
// hot paths (every read-index round, every proposal) must not scan all
// nodes per op. The cached node revalidates by its own Status — one
// mutex, no cluster scan — and the cache drops on any leader-side
// failure (ErrNotLeader / ErrStopped / round timeout, via dropLeader)
// or on observing the node out of Leader state; the next call then
// pays one full scan to re-prime it.
func (s *Store) leader() *raft.Node {
	if n := s.leaderCache.Load(); n != nil {
		if st, _ := n.Status(); st == raft.Leader {
			return n
		}
		s.leaderCache.CompareAndSwap(n, nil)
	}
	n := s.cluster.Leader()
	if n != nil {
		s.leaderCache.Store(n)
	}
	return n
}

// dropLeader invalidates the leader cache after a leader-side failure
// (the node answered ErrNotLeader, stopped, or its round timed out —
// leadership likely moved even if the stale node still believes).
func (s *Store) dropLeader() { s.leaderCache.Store(nil) }

// readNode picks the node to ask for a read index: the leader when one
// is visible, otherwise any live node, whose ReadIndex forwards to the
// leader it believes in.
func (s *Store) readNode() *raft.Node {
	if l := s.leader(); l != nil {
		return l
	}
	for _, id := range s.cluster.IDs() {
		if n := s.cluster.Node(id); n != nil {
			return n
		}
	}
	return nil
}

// replica returns node id's state machine, or nil when crashed.
func (s *Store) replica(id int) *stateMachine {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sms[id]
}

// waitAppliedSlice bounds one wait on a replica's applied floor before
// re-fetching its engine (a snapshot restore swaps the engine, and the
// old one's floor stops moving).
const waitAppliedSlice = 25 * time.Millisecond

// waitApplied blocks until sm has applied the log through idx and
// returns the engine that reached it. Each slice deregisters its waiter
// before re-fetching the engine, so abandoned waits don't accumulate on
// a lagging replica.
func (s *Store) waitApplied(sm *stateMachine, idx uint64, deadline time.Time) (*store.Engine, bool) {
	for {
		eng := sm.engine()
		ch, cancelWait := eng.WaitApplied(idx)
		t := s.clk.NewTimer(waitAppliedSlice)
		select {
		case <-ch:
			t.Stop()
			return eng, true
		case <-t.C():
			cancelWait()
			if s.closed.Load() || !s.clk.Now().Before(deadline) {
				return nil, false
			}
		case <-s.stopCh:
			t.Stop()
			cancelWait()
			return nil, false
		}
	}
}

// pause sleeps the retry backoff and reports whether the deadline still
// allows another attempt.
func (s *Store) pause(deadline time.Time) bool {
	s.clk.Sleep(retryPause)
	return s.clk.Now().Before(deadline)
}

// propose routes a mutation through the Raft log and waits for its
// application. In the default batch write mode it joins the group-commit
// queue (one log entry per replication round); single mode proposes it
// individually.
func (s *Store) propose(cmd command) (result, error) {
	if s.closed.Load() {
		return result{}, ErrClosed
	}
	if s.writeMode == WriteModeSingle {
		return s.proposeSingle(cmd)
	}
	return s.proposeBatched(cmd)
}

// proposeBatched enqueues cmd for the group-commit flusher and waits for
// its own waiter to fire — each sub-command completes individually when
// the wrapper entry applies.
func (s *Store) proposeBatched(cmd command) (result, error) {
	cmd.ReqID = fmt.Sprintf("r%d", s.reqSeq.Add(1))
	ch := make(chan result, 1)
	s.putWaiter(cmd.ReqID, ch)
	defer s.takeWaiter(cmd.ReqID)

	s.batchMu.Lock()
	s.batchQ = append(s.batchQ, cmd)
	depth := len(s.batchQ)
	s.batchMu.Unlock()
	if reg := s.mtr.Load(); reg != nil {
		reg.SetGauge("etcd_batch_queue_depth", float64(depth))
	}
	select {
	case s.batchKick <- struct{}{}:
	default:
	}

	t := s.clk.NewTimer(s.timeout)
	defer t.Stop()
	select {
	case res := <-ch:
		return res, nil
	case <-t.C():
		return result{}, ErrTimeout
	case <-s.stopCh:
		return result{}, ErrClosed
	}
}

// batchLoop is the group-commit flusher: it drains the queue into one
// opBatch entry, waits for that round to apply (or give up), then
// flushes whatever queued meanwhile. No artificial delay — a lone write
// flushes immediately; batching emerges only from concurrency.
func (s *Store) batchLoop() {
	for {
		select {
		case <-s.stopCh:
			return
		case <-s.batchKick:
		}
		for {
			s.batchMu.Lock()
			q := s.batchQ
			s.batchQ = nil
			s.batchMu.Unlock()
			if len(q) == 0 {
				break
			}
			s.flushBatch(q)
		}
	}
}

// flushBatch proposes one opBatch wrapper carrying q and waits until the
// entry applies — the flusher's own waiter on the wrapper's ReqID is the
// round-completion signal that clocks group commit. Re-proposals on
// leadership churn are deduplicated per sub-command by the state
// machine. If the round never applies within the request timeout the
// batch is abandoned: its clients' waiters time out individually.
func (s *Store) flushBatch(q []command) {
	wrap := command{ReqID: fmt.Sprintf("b%d", s.batchSeq.Add(1)), Op: opBatch, Subs: q}
	payload, err := json.Marshal(wrap)
	if err != nil {
		return // unreachable: commands are plain data
	}
	ch := make(chan result, 1)
	s.putWaiter(wrap.ReqID, ch)
	defer s.takeWaiter(wrap.ReqID)

	s.batches.Add(1)
	s.batchedCmds.Add(uint64(len(q)))
	if reg := s.mtr.Load(); reg != nil {
		reg.Inc("etcd_batches")
		reg.Add("etcd_batched_cmds", float64(len(q)))
	}

	deadline := s.clk.Now().Add(s.timeout)
	for s.clk.Now().Before(deadline) {
		if s.closed.Load() {
			return
		}
		leader := s.leader()
		if leader == nil {
			s.clk.Sleep(retryPause)
			continue
		}
		if _, _, err := leader.Propose(payload); err != nil {
			s.dropLeader()
			s.clk.Sleep(retryPause)
			continue
		}
		s.proposals.Add(1)
		t := s.clk.NewTimer(proposeWait)
		select {
		case <-ch:
			t.Stop()
			return
		case <-t.C():
			// Re-propose: leadership may have changed and the entry been
			// lost (sub-command dedup makes the retry idempotent).
			s.dropLeader()
		case <-s.stopCh:
			t.Stop()
			return
		}
	}
}

// proposeSingle routes one command through the Raft log as its own
// entry. The wait is event-driven — a select on the waiter channel and a
// clock timer — rather than a poll: the old 5 ms busy-loop put a
// virtual-latency floor under every write and burned sim-clock cycles.
func (s *Store) proposeSingle(cmd command) (result, error) {
	cmd.ReqID = fmt.Sprintf("r%d", s.reqSeq.Add(1))
	ch := make(chan result, 1)
	s.putWaiter(cmd.ReqID, ch)
	defer s.takeWaiter(cmd.ReqID)

	payload, err := json.Marshal(cmd)
	if err != nil {
		return result{}, fmt.Errorf("encoding command: %w", err)
	}

	deadline := s.clk.Now().Add(s.timeout)
	for s.clk.Now().Before(deadline) {
		leader := s.leader()
		if leader == nil {
			s.clk.Sleep(retryPause)
			continue
		}
		if _, _, err := leader.Propose(payload); err != nil {
			s.dropLeader()
			s.clk.Sleep(retryPause)
			continue
		}
		s.proposals.Add(1)
		// Wait for apply; on timeout re-propose, since leadership may
		// have changed and the entry been lost (bounded by the overall
		// deadline; dedupe in the state machine makes retries idempotent).
		t := s.clk.NewTimer(proposeWait)
		select {
		case res := <-ch:
			t.Stop()
			return res, nil
		case <-t.C():
			s.dropLeader()
		case <-s.stopCh:
			t.Stop()
			return result{}, ErrClosed
		}
	}
	select {
	case res := <-ch:
		return res, nil
	default:
		return result{}, ErrTimeout
	}
}

// CrashNode stops raft node id, preserving its durable state.
func (s *Store) CrashNode(id int) {
	s.mu.Lock()
	if st, ok := s.stops[id]; ok {
		close(st)
		delete(s.stops, id)
	}
	delete(s.sms, id)
	s.mu.Unlock()
	s.dropLeader() // the crashed node may be the cached leader
	s.cluster.Crash(id)
}

// RestartNode reboots a crashed node; its state machine is rebuilt from
// the replayed log.
func (s *Store) RestartNode(id int) {
	s.cluster.Restart(id)
	s.startApplier(id)
}

// Nodes returns the cluster membership.
func (s *Store) Nodes() []int { return s.cluster.IDs() }

// LeaderID returns the current leader's ID, or -1.
func (s *Store) LeaderID() int {
	l := s.leader()
	if l == nil {
		return -1
	}
	return l.ID()
}

// SkewNodeClock offsets raft node id's local clock readings by d (0
// heals it) — the fault primitive the lease-safety tests and the chaos
// layer drive. Timers are unaffected: real skew shifts the values a
// node reads, not the rate its timers fire at, which is exactly what
// makes a skewed leader's lease deadline dangerous.
func (s *Store) SkewNodeClock(id int, d time.Duration) {
	s.cluster.SetClockSkew(id, d)
}

// ReadStats sums the raft read-path counters (confirmation rounds,
// reads resolved per round, lease fast-path reads, lease expiries)
// across live nodes — the numerators of the rounds-per-read economy
// BenchmarkEtcdReads measures.
func (s *Store) ReadStats() raft.ReadStats { return s.cluster.ReadStats() }

// ReadsRouted reports how many reads each replica has served (applied-
// floor waits in the read-index/lease modes, local serves in
// serializable mode), keyed by node ID — the follower-routing
// distribution.
func (s *Store) ReadsRouted() map[int]uint64 {
	out := make(map[int]uint64, len(s.readLoads))
	for id, ld := range s.readLoads {
		out[id] = ld.routed.Load()
	}
	return out
}

// stateMachine is the deterministic automaton each replica runs: a
// sharded MVCC engine in external-revision mode (the Raft index is the
// revision) plus the exactly-once dedup ledger. Its apply loop is
// single-goroutine per replica; mu only fences apply against restore.
type stateMachine struct {
	mu      sync.Mutex
	eng     *store.Engine
	dedup   map[string]uint64 // reqID -> applied index
	mtr     *metrics.Registry
	mtrName string
}

func newStateMachine(shards int) *stateMachine {
	return &stateMachine{
		eng:   store.NewEngine(store.Config{Shards: shards, ExternalRevs: true}),
		dedup: make(map[string]uint64),
	}
}

// engine returns the current backing engine (swapped by restore).
func (m *stateMachine) engine() *store.Engine {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.eng
}

// advance raises the replica's applied floor past an index that carries
// no state change (raft no-ops, corrupt entries).
func (m *stateMachine) advance(idx uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	_ = m.eng.AdvanceFloor(idx)
}

// instrument hooks the replica's engine into the metrics registry and
// remembers the hookup so restore re-applies it to the fresh engine.
func (m *stateMachine) instrument(reg *metrics.Registry, name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mtr, m.mtrName = reg, name
	m.eng.Instrument(reg, name)
}

// historyEvents reconstructs the facade events in (from, to] for keys
// under prefix from this replica's MVCC history.
func (m *stateMachine) historyEvents(prefix string, from, to uint64) ([]Event, error) {
	evs, err := m.engine().HistoryEvents(prefix, from, to)
	if err != nil {
		return nil, err
	}
	out := make([]Event, 0, len(evs))
	for _, ev := range evs {
		val, _ := ev.Value.(string)
		out = append(out, Event{Type: EventType(ev.Type), Key: ev.Key, Value: val, Rev: ev.Rev})
	}
	return out, nil
}

// smSnapshot is the serialized state-machine image stored in Raft
// snapshots.
type smSnapshot struct {
	Data  map[string]KV     `json:"data"`
	Dedup map[string]uint64 `json:"dedup"`
}

// serialize captures the full state machine for log compaction.
func (m *stateMachine) serialize() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	data := make(map[string]KV)
	for _, kv := range m.eng.Export() {
		val, _ := kv.Value.(string)
		data[kv.Key] = KV{Key: kv.Key, Value: val, Rev: kv.Rev}
	}
	img := smSnapshot{Data: data, Dedup: m.dedup}
	raw, err := json.Marshal(img)
	if err != nil {
		return nil
	}
	return raw
}

// restore replaces the state machine with a serialized image covering
// the log through snapIndex. The fresh engine's floor starts at
// snapIndex even when the image's highest key revision is older
// (trailing entries may have been deletes or reads): a read-index wait
// against this replica must see the whole snapshot as applied.
func (m *stateMachine) restore(raw []byte, snapIndex uint64) {
	var img smSnapshot
	if err := json.Unmarshal(raw, &img); err != nil {
		return // corrupt snapshot: keep current state
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// Import in sorted key order: every replica restoring this image
	// must install identical shard logs, and map order would let two
	// restores of one snapshot diverge.
	keys := make([]string, 0, len(img.Data))
	for k := range img.Data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	kvs := make([]store.KV, 0, len(keys))
	for _, k := range keys {
		kv := img.Data[k]
		kvs = append(kvs, store.KV{Key: k, Value: kv.Value, Rev: kv.Rev})
	}
	eng := store.NewEngine(store.Config{Shards: m.eng.Shards(), ExternalRevs: true})
	_ = eng.Import(kvs, snapIndex) // cannot fail: the engine is external-revs
	if m.mtr != nil {
		eng.Instrument(m.mtr, m.mtrName)
	}
	m.eng = eng
	m.dedup = img.Dedup
	if m.dedup == nil {
		m.dedup = make(map[string]uint64)
	}
}

func (m *stateMachine) apply(idx uint64, cmd command) result {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Exactly-once: a retried proposal may appear twice in the log; only
	// the first occurrence mutates state.
	if first, seen := m.dedup[cmd.ReqID]; seen && first != idx {
		_ = m.eng.AdvanceFloor(idx)
		return result{rev: first, ok: true}
	}
	m.dedup[cmd.ReqID] = idx

	res := result{rev: idx}
	applyOps := func(ops []store.Op) {
		events, _ := m.eng.ApplyAt(idx, ops)
		for _, ev := range events {
			val, _ := ev.Value.(string)
			res.events = append(res.events, Event{
				Type: EventType(ev.Type), Key: ev.Key, Value: val, Rev: ev.Rev,
			})
		}
	}
	holds := func(c Cmp) bool {
		cur, _, exists := m.eng.Get(c.Key)
		if exists != c.PrevExists {
			return false
		}
		return !exists || cur.(string) == c.Prev
	}

	switch cmd.Op {
	case opPut:
		applyOps([]store.Op{{Kind: store.OpPut, Key: cmd.Key, Value: cmd.Value}})
	case opDelete:
		applyOps([]store.Op{{Kind: store.OpDelete, Key: cmd.Key}})
	case opCAS:
		if holds(Cmp{Key: cmd.Key, Prev: cmd.Prev, PrevExists: cmd.PrevExists}) {
			applyOps([]store.Op{{Kind: store.OpPut, Key: cmd.Key, Value: cmd.Value}})
			res.ok = true
		}
	case opTxn:
		res.ok = true
		for _, c := range cmd.Cmps {
			if !holds(c) {
				res.ok = false
				break
			}
		}
		branch := cmd.Then
		if !res.ok {
			branch = cmd.Else
		}
		ops := make([]store.Op, 0, len(branch))
		for _, op := range branch {
			kind := store.OpPut
			if op.Type == EventDelete {
				kind = store.OpDelete
			}
			ops = append(ops, store.Op{Kind: kind, Key: op.Key, Value: op.Value})
		}
		applyOps(ops)
	}
	// Raise the applied floor only now, after any mutation is installed
	// (ApplyAt raises it itself, post-install; this covers failed CAS
	// and empty branches). Raising it before the write would let a
	// WaitApplied reader wake at this index and read the pre-write state
	// — a stale read after an acknowledged write. The WatchFrom backfill
	// also compares this floor against the hub's delivery cursor, so
	// every applied index must reach it.
	_ = m.eng.AdvanceFloor(idx)
	return res
}

// applyBatch applies a group-commit wrapper's sub-commands at one log
// index. Guards of later sub-commands must see earlier sub-commands'
// effects, but the engine may only install the batch in one ApplyAt:
// installing per sub-command would raise the applied floor mid-batch and
// let a read-index reader observe a half-applied batch. So mutations are
// staged in an overlay that guard evaluation reads through, and the
// whole staged op list installs at once (the engine's same-revision
// rule — later op wins per key — collapses intra-batch overwrites).
func (m *stateMachine) applyBatch(idx uint64, subs []command) ([]result, []Event) {
	m.mu.Lock()
	defer m.mu.Unlock()

	type oval struct {
		val    string
		exists bool
	}
	overlay := make(map[string]oval)
	lookup := func(key string) (string, bool) {
		if o, ok := overlay[key]; ok {
			return o.val, o.exists
		}
		v, _, ok := m.eng.Get(key)
		sv, _ := v.(string)
		return sv, ok
	}
	holds := func(c Cmp) bool {
		cur, exists := lookup(c.Key)
		if exists != c.PrevExists {
			return false
		}
		return !exists || cur == c.Prev
	}
	var ops []store.Op
	stage := func(op store.Op) {
		ops = append(ops, op)
		if op.Kind == store.OpPut {
			sv, _ := op.Value.(string)
			overlay[op.Key] = oval{val: sv, exists: true}
		} else {
			overlay[op.Key] = oval{}
		}
	}

	results := make([]result, len(subs))
	for i, sub := range subs {
		// Exactly-once across wrapper re-proposals: only the first
		// occurrence of a sub-command mutates state.
		if first, seen := m.dedup[sub.ReqID]; seen && first != idx {
			results[i] = result{rev: first, ok: true}
			continue
		}
		m.dedup[sub.ReqID] = idx

		res := result{rev: idx}
		switch sub.Op {
		case opPut:
			stage(store.Op{Kind: store.OpPut, Key: sub.Key, Value: sub.Value})
		case opDelete:
			stage(store.Op{Kind: store.OpDelete, Key: sub.Key})
		case opCAS:
			if holds(Cmp{Key: sub.Key, Prev: sub.Prev, PrevExists: sub.PrevExists}) {
				stage(store.Op{Kind: store.OpPut, Key: sub.Key, Value: sub.Value})
				res.ok = true
			}
		case opTxn:
			res.ok = true
			for _, c := range sub.Cmps {
				if !holds(c) {
					res.ok = false
					break
				}
			}
			branch := sub.Then
			if !res.ok {
				branch = sub.Else
			}
			for _, op := range branch {
				kind := store.OpPut
				if op.Type == EventDelete {
					kind = store.OpDelete
				}
				stage(store.Op{Kind: kind, Key: op.Key, Value: op.Value})
			}
		}
		results[i] = res
	}

	var events []Event
	if len(ops) > 0 {
		evs, _ := m.eng.ApplyAt(idx, ops)
		for _, ev := range evs {
			val, _ := ev.Value.(string)
			events = append(events, Event{
				Type: EventType(ev.Type), Key: ev.Key, Value: val, Rev: ev.Rev,
			})
		}
	}
	// All-deduped batches still occupy the index.
	_ = m.eng.AdvanceFloor(idx)
	return results, events
}
