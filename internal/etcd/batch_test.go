package etcd

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestBatchCoalescesConcurrentWrites is the group-commit payoff: 64
// concurrent writers must land in far fewer Raft proposals than writes,
// with every write individually acknowledged and readable.
func TestBatchCoalescesConcurrentWrites(t *testing.T) {
	s, _ := newTestStore(t, 3)
	// A warm-up write elects a leader outside the measured window.
	if _, err := s.Put("/warm", "up"); err != nil {
		t.Fatal(err)
	}

	const writers = 64
	before := s.Proposals()
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Put(fmt.Sprintf("/coal/k%d", i), fmt.Sprintf("v%d", i))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}

	if delta := s.Proposals() - before; delta >= writers {
		t.Fatalf("64 concurrent writes took %d proposals, want coalescing (< %d)", delta, writers)
	}
	batches, cmds := s.BatchStats()
	if batches == 0 || cmds < writers {
		t.Fatalf("batch stats: %d batches, %d cmds, want >= 1 batch carrying all %d writes", batches, cmds, writers)
	}
	if occupancy := float64(cmds) / float64(batches); occupancy <= 1 {
		t.Fatalf("batch occupancy = %.2f, want > 1", occupancy)
	}

	for i := 0; i < writers; i++ {
		v, found, err := s.Get(fmt.Sprintf("/coal/k%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if !found || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d read (%q,%v) after acknowledged write", i, v, found)
		}
	}
}

// TestBatchFinalState runs one mixed workload (puts, overwrites,
// deletes, CAS successes and failures, a txn on both branches) through
// the group-commit write path and requires the exact final key/value
// state the sequential semantics dictate.
func TestBatchFinalState(t *testing.T) {
	s, _ := newTestStore(t, 3)
	for i := 0; i < 8; i++ {
		if _, err := s.Put(fmt.Sprintf("/eq/k%d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Put("/eq/k3", "overwritten"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("/eq/k5"); err != nil {
		t.Fatal(err)
	}
	// CAS create-if-absent, then a conflicting create that must fail.
	if err := s.CompareAndSwap("/eq/lock", "", false, "owner1"); err != nil {
		t.Fatal(err)
	}
	if err := s.CompareAndSwap("/eq/lock", "", false, "owner2"); !errors.Is(err, ErrCASFailed) {
		t.Fatalf("conflicting CAS err = %v, want ErrCASFailed", err)
	}
	if err := s.CompareAndSwap("/eq/k0", "v0", true, "swapped"); err != nil {
		t.Fatal(err)
	}
	// Txn: then-branch fires, then a second txn falls to orElse.
	if ok, _, err := s.Txn(
		[]Cmp{{Key: "/eq/lock", Prev: "owner1", PrevExists: true}},
		[]TxnOp{{Type: EventPut, Key: "/eq/txn", Value: "then"}},
		[]TxnOp{{Type: EventPut, Key: "/eq/txn", Value: "else"}},
	); err != nil || !ok {
		t.Fatalf("txn (ok=%v, err=%v), want then-branch", ok, err)
	}
	if ok, _, err := s.Txn(
		[]Cmp{{Key: "/eq/lock", Prev: "owner2", PrevExists: true}},
		[]TxnOp{{Type: EventDelete, Key: "/eq/txn"}},
		[]TxnOp{{Type: EventPut, Key: "/eq/else", Value: "taken"}},
	); err != nil || ok {
		t.Fatalf("txn (ok=%v, err=%v), want orElse-branch", ok, err)
	}

	kvs, err := s.Range("/eq/")
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]string, len(kvs))
	for _, kv := range kvs {
		got[kv.Key] = kv.Value
	}
	want := map[string]string{
		"/eq/k0":   "swapped",
		"/eq/k1":   "v1",
		"/eq/k2":   "v2",
		"/eq/k3":   "overwritten",
		"/eq/k4":   "v4",
		"/eq/k6":   "v6",
		"/eq/k7":   "v7",
		"/eq/lock": "owner1",
		"/eq/txn":  "then",
		"/eq/else": "taken",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("final state = %v, want %v", got, want)
	}
}

// TestBatchIntraRoundReadYourWrites: a CAS whose guard depends on a put
// coalesced into the same batch must observe the staged effect (the
// overlay), not the pre-batch engine state.
func TestBatchIntraRoundReadYourWrites(t *testing.T) {
	s, _ := newTestStore(t, 3)
	if _, err := s.Put("/ryw/seed", "x"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var putErr, casErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, putErr = s.Put("/ryw/key", "base")
	}()
	go func() {
		defer wg.Done()
		// Retry until the put's effect is visible: if both land in one
		// batch the overlay serves it; if not, the engine does.
		deadline := time.Now().Add(5 * time.Second) //lint:allow wallclock real-time watchdog bounding a spin-retry, virtual clock advances elsewhere
		for {
			casErr = s.CompareAndSwap("/ryw/key", "base", true, "swapped")
			//lint:allow wallclock real-time watchdog bounding a spin-retry, virtual clock advances elsewhere
			if casErr == nil || !errors.Is(casErr, ErrCASFailed) || time.Now().After(deadline) {
				return
			}
		}
	}()
	wg.Wait()
	if putErr != nil || casErr != nil {
		t.Fatalf("put err=%v cas err=%v", putErr, casErr)
	}
	if v, _, _ := s.Get("/ryw/key"); v != "swapped" {
		t.Fatalf("final value %q, want swapped", v)
	}
}

// TestBatchedWritesSurviveLeaderCrash: writes in flight across a leader
// crash must either commit (and then be readable) or fail — never be
// acknowledged and lost. The batcher's wrapper re-propose path is what is
// being exercised.
func TestBatchedWritesSurviveLeaderCrash(t *testing.T) {
	s, _ := newTestStore(t, 3)
	if _, err := s.Put("/crash/seed", "x"); err != nil {
		t.Fatal(err)
	}

	const writers = 16
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Put(fmt.Sprintf("/crash/k%d", i), fmt.Sprintf("v%d", i))
		}(i)
	}
	if lead := s.LeaderID(); lead >= 0 {
		s.CrashNode(lead)
		defer s.RestartNode(lead)
	}
	wg.Wait()

	for i := 0; i < writers; i++ {
		if errs[i] != nil {
			continue // unacknowledged: allowed to be absent
		}
		v, found, err := s.Get(fmt.Sprintf("/crash/k%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if !found || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("acknowledged write %d lost across leader crash: (%q,%v)", i, v, found)
		}
	}
}

// TestBatchingPreservesZeroProposalReads: with batched writes, reads
// still cost zero proposals.
func TestBatchingPreservesZeroProposalReads(t *testing.T) {
	s, _ := newTestStore(t, 3)
	if _, err := s.Put("/zero/k", "v"); err != nil {
		t.Fatal(err)
	}
	before := s.Proposals()
	for i := 0; i < 50; i++ {
		if _, _, err := s.Get("/zero/k"); err != nil {
			t.Fatal(err)
		}
	}
	if delta := s.Proposals() - before; delta != 0 {
		t.Fatalf("50 reads cost %d proposals, want 0", delta)
	}
}
