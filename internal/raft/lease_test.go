package raft

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

// The tests in this file pin the quorum-amortized read path: lease
// reads must cost zero confirmation rounds while the check-quorum
// lease is live, coalescing must resolve many concurrent reads per
// round, and — the safety half — step-down and clock skew beyond the
// drift bound must kill the lease and push reads back to full rounds
// rather than let a stale deadline serve stale data. The unsafe-mode
// companion proves the drift bound is load-bearing: with the defenses
// removed, the stale read actually happens.

// warmLease waits until the leader's lease has had several quorum
// heartbeat rounds to arm and returns the leader.
func warmLease(t *testing.T, c *Cluster, clk interface {
	Sleep(time.Duration)
}) *Node {
	t.Helper()
	l := c.WaitLeader(5 * time.Second)
	if l == nil {
		t.Fatal("no leader")
	}
	clk.Sleep(200 * time.Millisecond)
	return l
}

// TestLeaseReadsSkipRounds: with the lease armed by the steady
// heartbeat cadence, back-to-back ReadIndex calls are answered from
// commitIndex with zero confirmation rounds.
func TestLeaseReadsSkipRounds(t *testing.T) {
	c, clk := newTestCluster(t, 3)
	proposeOK(t, c, clk, "w0")
	waitCommitted(t, c, clk, 1, 10*time.Second)
	l := warmLease(t, c, clk)

	before := c.ReadStats()
	const reads = 20
	for i := 0; i < reads; i++ {
		if _, err := l.ReadIndex(time.Second); err != nil {
			t.Fatalf("lease read %d: %v", i, err)
		}
	}
	after := c.ReadStats()
	if got := after.LeaseReads - before.LeaseReads; got != reads {
		t.Fatalf("lease served %d of %d reads", got, reads)
	}
	if got := after.Rounds - before.Rounds; got != 0 {
		t.Fatalf("lease-mode reads launched %d confirmation rounds, want 0", got)
	}
}

// unarmedLeaseCluster builds a cluster whose check-quorum lease never
// arms: a drift bound as large as the election timeout leaves no lease
// window, so every linearizable read pays a confirmation round.
func unarmedLeaseCluster(t *testing.T) (*Cluster, *clock.Sim) {
	t.Helper()
	return newTestClusterCfg(t, 3, func(cfg *Config) {
		cfg.MaxClockDrift = cfg.ElectionTimeoutMin
	})
}

// TestLeaseDisabledPaysRounds: with leases unarmed, sequential reads
// pay one confirmation round each and none is served from the lease.
func TestLeaseDisabledPaysRounds(t *testing.T) {
	c, clk := unarmedLeaseCluster(t)
	proposeOK(t, c, clk, "w0")
	waitCommitted(t, c, clk, 1, 10*time.Second)
	l := warmLease(t, c, clk)

	before := c.ReadStats()
	const reads = 5
	for i := 0; i < reads; i++ {
		if _, err := l.ReadIndex(time.Second); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	after := c.ReadStats()
	if got := after.LeaseReads - before.LeaseReads; got != 0 {
		t.Fatalf("unarmed lease still served %d reads", got)
	}
	if got := after.Rounds - before.Rounds; got != reads {
		t.Fatalf("sequential reads cost %d rounds, want %d", got, reads)
	}
}

// TestCoalescedReadsShareRounds: with leases unarmed, concurrent
// ReadIndex calls join shared confirmation rounds — one in-flight round
// plus one queued — instead of launching one each.
func TestCoalescedReadsShareRounds(t *testing.T) {
	c, clk := unarmedLeaseCluster(t)
	proposeOK(t, c, clk, "w0")
	waitCommitted(t, c, clk, 1, 10*time.Second)
	l := warmLease(t, c, clk)

	before := c.ReadStats()
	const readers = 32
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := l.ReadIndex(5 * time.Second)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("coalesced read: %v", err)
		}
	}
	after := c.ReadStats()
	if got := after.LeaseReads - before.LeaseReads; got != 0 {
		t.Fatalf("unarmed lease still served %d reads", got)
	}
	if got := after.RoundReads - before.RoundReads; got != readers {
		t.Fatalf("rounds resolved %d reads, want %d", got, readers)
	}
	rounds := after.Rounds - before.Rounds
	if rounds == 0 || rounds > readers/4 {
		t.Fatalf("%d concurrent reads cost %d rounds, want amortization (1..%d)",
			readers, rounds, readers/4)
	}
}

// TestStepDownMidLeaseFailsPendingReads: a deposed leader must fail
// reads pending on its confirmation round with ErrNotLeader — never
// resolve them from its stale commit index.
func TestStepDownMidLeaseFailsPendingReads(t *testing.T) {
	c, clk := newTestCluster(t, 3)
	proposeOK(t, c, clk, "w0")
	waitCommitted(t, c, clk, 1, 10*time.Second)
	l := warmLease(t, c, clk)

	c.Transport().Partition(l.ID())
	// Let the lease expire (its bound is under ElectionTimeoutMin) and
	// the majority elect a successor, so the stale leader's next read
	// starts a full round that can never confirm.
	clk.Sleep(400 * time.Millisecond)

	type res struct {
		idx uint64
		err error
	}
	done := make(chan res, 1)
	go func() {
		idx, err := l.ReadIndex(10 * time.Second)
		done <- res{idx, err}
	}()
	// Give the round time to register as pending, then heal: the stale
	// leader hears the successor's higher term and steps down with the
	// read still in flight.
	clk.Sleep(100 * time.Millisecond)
	c.Transport().Heal(l.ID())

	r := <-done
	if r.err == nil {
		t.Fatalf("pending read on deposed leader resolved to %d", r.idx)
	}
	if !errors.Is(r.err, ErrNotLeader) {
		t.Fatalf("pending read failed with %v, want ErrNotLeader", r.err)
	}
}

// TestClockSkewBreaksLease: a leader whose clock steps beyond the
// drift bound must lose its lease (the follower clock echoes catch the
// skew) and keep serving reads only through full confirmation rounds —
// and once partitioned it must not answer at all, while the majority's
// successor commits past it.
func TestClockSkewBreaksLease(t *testing.T) {
	c, clk := newTestCluster(t, 3)
	proposeOK(t, c, clk, "w0")
	waitCommitted(t, c, clk, 1, 10*time.Second)
	l := warmLease(t, c, clk)

	// Prove the lease is live before the fault.
	pre := c.ReadStats()
	if _, err := l.ReadIndex(time.Second); err != nil {
		t.Fatalf("pre-skew read: %v", err)
	}
	if c.ReadStats().LeaseReads == pre.LeaseReads {
		t.Fatal("lease not armed before the skew fault")
	}

	// Step the leader's clock 10s backward — far beyond the 20ms drift
	// bound — while it is still connected.
	c.SetClockSkew(l.ID(), -10*time.Second)
	clk.Sleep(200 * time.Millisecond)
	if c.ReadStats().LeaseExpiries == pre.LeaseExpiries {
		t.Fatal("skew beyond the drift bound did not invalidate the lease")
	}

	// Connected, reads still answer — via full rounds, not the lease.
	mid := c.ReadStats()
	if _, err := l.ReadIndex(time.Second); err != nil {
		t.Fatalf("post-skew connected read: %v", err)
	}
	post := c.ReadStats()
	if post.LeaseReads != mid.LeaseReads {
		t.Fatal("skewed leader served a lease read")
	}
	if post.Rounds == mid.Rounds {
		t.Fatal("skewed leader's read cost no confirmation round")
	}

	// Partition the skewed leader; the majority elects and commits.
	c.Transport().Partition(l.ID())
	successor := waitSuccessor(t, c, clk, l.ID())
	idx, _, err := successor.Propose([]byte("w1"))
	if err != nil {
		t.Fatalf("successor propose: %v", err)
	}
	waitCommitIndex(t, successor, clk, idx)

	// The stale, skewed leader must refuse every read.
	for i := 0; i < 3; i++ {
		if got, err := l.ReadIndex(time.Second); err == nil {
			t.Fatalf("skewed stale leader served read index %d (successor committed %d)", got, idx)
		}
	}
	c.Transport().Heal(l.ID())
	c.SetClockSkew(l.ID(), 0)
}

// TestClockSkewUnsafeModeServesStale is the companion proof that the
// drift bound is load-bearing: with MaxClockDrift < 0 every defense is
// off, and the same backward clock step turns the lease into a zombie —
// the partitioned stale leader KEEPS serving reads from its old commit
// index after the successor has committed past it. This stale read is
// exactly what the bound exists to prevent; if this test starts
// failing, the unsafe escape hatch has grown a defense and the safe
// test above is no longer demonstrating anything.
func TestClockSkewUnsafeModeServesStale(t *testing.T) {
	c, clk := newTestClusterCfg(t, 3, func(cfg *Config) {
		cfg.MaxClockDrift = -1 // UNSAFE: no slack, no step checks, no echoes
	})
	proposeOK(t, c, clk, "w0")
	waitCommitted(t, c, clk, 1, 10*time.Second)
	l := warmLease(t, c, clk)

	// Partition first, then step the clock back: no later quorum round
	// can overwrite the lease with post-step timestamps, so the grant's
	// deadline lives 10s in the leader's future.
	c.Transport().Partition(l.ID())
	c.SetClockSkew(l.ID(), -10*time.Second)

	successor := waitSuccessor(t, c, clk, l.ID())
	idx, _, err := successor.Propose([]byte("w1"))
	if err != nil {
		t.Fatalf("successor propose: %v", err)
	}
	waitCommitIndex(t, successor, clk, idx)

	got, err := l.ReadIndex(time.Second)
	if err != nil {
		t.Fatalf("unsafe mode: zombie lease did not serve (%v) — the drift defenses leaked into MaxClockDrift < 0", err)
	}
	if got >= idx {
		t.Fatalf("unsafe read index %d unexpectedly covers the successor's commit %d", got, idx)
	}
	c.Transport().Heal(l.ID())
	c.SetClockSkew(l.ID(), 0)
}

// waitSuccessor blocks until some node other than excluded leads.
func waitSuccessor(t *testing.T, c *Cluster, clk interface {
	Now() time.Time
	Sleep(time.Duration)
}, excluded int) *Node {
	t.Helper()
	deadline := clk.Now().Add(15 * time.Second)
	for clk.Now().Before(deadline) {
		for _, id := range c.IDs() {
			if id == excluded {
				continue
			}
			if n := c.Node(id); n != nil && n.State() == Leader {
				return n
			}
		}
		clk.Sleep(20 * time.Millisecond)
	}
	t.Fatal("majority did not elect a successor")
	return nil
}

// waitCommitIndex blocks until n's commit index reaches idx.
func waitCommitIndex(t *testing.T, n *Node, clk interface {
	Now() time.Time
	Sleep(time.Duration)
}, idx uint64) {
	t.Helper()
	deadline := clk.Now().Add(10 * time.Second)
	for clk.Now().Before(deadline) {
		if n.CommitIndex() >= idx {
			return
		}
		clk.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("commit index never reached %d", idx)
}
