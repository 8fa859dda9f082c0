package blobfleet

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"sync"
	"testing"
	"time"

	"faust/internal/clock"
	"faust/internal/crypto"
	"faust/internal/transport"
)

// testFleet builds a fleet of n FaultyBlobs-wrapped MemBlobs on a fake
// clock (a fresh one unless opts names one): backoff sleeps return at
// once, and the prober runs only when a test advances the clock past
// DefaultProbeInterval or calls probe itself.
func testFleet(t *testing.T, n int, opts Options) (*Failover, []*FaultyBlobs, []*transport.MemBlobs) {
	t.Helper()
	if opts.Clock == nil {
		opts.Clock = clock.NewFake()
	}
	var backends []Backend
	var faulty []*FaultyBlobs
	var inner []*transport.MemBlobs
	for i := 0; i < n; i++ {
		mb := transport.NewMemBlobs()
		fb := NewFaultyBlobs(fmt.Sprintf("b%d", i), mb, FaultConfig{Seed: int64(i) + 1})
		backends = append(backends, Backend{Name: fmt.Sprintf("b%d", i), Store: fb})
		faulty = append(faulty, fb)
		inner = append(inner, mb)
	}
	f, err := New(backends, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = f.Close() })
	return f, faulty, inner
}

// drive feeds n failures (or successes) through a backend's aliveness.
func drive(f *Failover, b *backendState, ok bool, n int) {
	for i := 0; i < n; i++ {
		f.report(b, ok)
	}
}

func TestFailoverReplicatesWrites(t *testing.T) {
	f, _, inner := testFleet(t, 3, Options{WriteReplicas: 2})
	data := []byte("replicated blob")
	hash := crypto.Hash(data)
	if err := f.PutBlob(hash, data); err != nil {
		t.Fatalf("put: %v", err)
	}
	for i, mb := range inner[:2] {
		if got, err := mb.GetBlob(hash); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("backend %d missing replica: %q, %v", i, got, err)
		}
	}
	if _, err := inner[2].GetBlob(hash); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("backend 2 unexpectedly has the blob (w=2): %v", err)
	}
	got, err := f.GetBlob(hash)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get: %q, %v", got, err)
	}
	st := f.Stats()
	if st.Puts != 1 || st.Gets != 1 || st.FailoverPuts != 0 || st.FailoverGets != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFailoverSurvivesPrimaryDeath(t *testing.T) {
	f, faulty, _ := testFleet(t, 2, Options{WriteReplicas: 1})
	pre := []byte("written before the crash")
	preHash := crypto.Hash(pre)
	if err := f.PutBlob(preHash, pre); err != nil {
		t.Fatalf("put: %v", err)
	}

	faulty[0].Kill()
	// Writes skip past the dead primary to the secondary; reads that the
	// primary can no longer serve come from the secondary. No error may
	// reach the caller.
	for i := 0; i < 20; i++ {
		data := []byte(fmt.Sprintf("post-crash %d", i))
		hash := crypto.Hash(data)
		if err := f.PutBlob(hash, data); err != nil {
			t.Fatalf("put %d during primary outage: %v", i, err)
		}
		if got, err := f.GetBlob(hash); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("get %d during primary outage: %v", i, err)
		}
	}
	st := f.Stats()
	if st.FailoverPuts == 0 || st.FailoverGets == 0 {
		t.Fatalf("no failovers recorded during outage: %+v", st)
	}
	if st.BackendsDied == 0 {
		t.Fatal("primary never left the rotation")
	}
	status := f.Status()
	if status[0].Alive {
		t.Fatalf("primary still in rotation: %+v", status)
	}

	// The pre-crash blob was written with w=1 (primary only) and the
	// primary is dead: the fleet must fail the read, not invent data.
	if _, err := f.GetBlob(preHash); err == nil {
		t.Fatal("pre-crash blob readable while its only replica is dead")
	}

	faulty[0].Revive()
	f.probe()
	if !f.Status()[0].Alive {
		t.Fatal("probe did not resurrect the revived primary")
	}
	if got, err := f.GetBlob(preHash); err != nil || !bytes.Equal(got, pre) {
		t.Fatalf("pre-crash blob after recovery: %q, %v", got, err)
	}
}

func TestFailoverReadRepair(t *testing.T) {
	f, _, inner := testFleet(t, 2, Options{WriteReplicas: 1})
	data := []byte("only on the secondary")
	hash := crypto.Hash(data)
	// Plant the blob on the secondary only, as if the primary were wiped.
	if err := inner[1].PutBlob(hash, data); err != nil {
		t.Fatal(err)
	}
	got, err := f.GetBlob(hash)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get: %q, %v", got, err)
	}
	// Read repair must have copied it back to the primary.
	if got, err := inner[0].GetBlob(hash); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("primary not repaired: %q, %v", got, err)
	}
	st := f.Stats()
	if st.ReadRepairs != 1 || st.FailoverGets != 1 {
		t.Fatalf("stats = %+v, want 1 read repair and 1 failover get", st)
	}
	// The next read is served by the repaired primary.
	if _, err := f.GetBlob(hash); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.FailoverGets != 1 {
		t.Fatalf("read after repair still failed over: %+v", st)
	}
}

func TestFailoverSkipsTamperedReplica(t *testing.T) {
	f, faulty, _ := testFleet(t, 2, Options{WriteReplicas: 2})
	data := []byte("verified end to end")
	hash := crypto.Hash(data)
	if err := f.PutBlob(hash, data); err != nil {
		t.Fatal(err)
	}
	// Turn the primary byzantine: every payload it serves is bit-flipped.
	faulty[0].SetConfig(FaultConfig{FlipRate: 1})
	got, err := f.GetBlob(hash)
	if err != nil {
		t.Fatalf("get with byzantine primary: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("fleet served a corrupt payload")
	}
	st := f.Stats()
	if st.TamperSkips == 0 {
		t.Fatal("tampered replica was not counted as skipped")
	}
	if st.FailoverGets == 0 {
		t.Fatal("read was not served by the honest secondary")
	}

	// Both replicas byzantine: the fleet must refuse, not serve garbage.
	faulty[1].SetConfig(FaultConfig{FlipRate: 1})
	if _, err := f.GetBlob(hash); err == nil {
		t.Fatal("get with all replicas tampered succeeded")
	}
}

func TestFailoverRetriesTransientFailures(t *testing.T) {
	// ErrRate 0.5 with 3 attempts per backend: a single-backend fleet
	// should almost always get an op through, and retries must register.
	f, _, _ := testFleet(t, 1, Options{WriteReplicas: 1, RetryAttempts: 6})
	fb := f.backends[0].Store.(*FaultyBlobs)
	fb.SetConfig(FaultConfig{Seed: 7, ErrRate: 0.5})
	data := []byte("retried")
	hash := crypto.Hash(data)
	ok := 0
	for i := 0; i < 30; i++ {
		if err := f.PutBlob(hash, data); err == nil {
			ok++
		}
	}
	if ok < 25 {
		t.Fatalf("only %d/30 puts survived ErrRate=0.5 with 6 attempts", ok)
	}
	if f.Stats().Retries == 0 {
		t.Fatal("no retries recorded")
	}
}

func TestFailoverAllDeadStillTries(t *testing.T) {
	f, faulty, _ := testFleet(t, 2, Options{WriteReplicas: 1, RetryAttempts: 1})
	data := []byte("last resort")
	hash := crypto.Hash(data)
	// Drive both backends out of the rotation...
	for _, b := range f.backends {
		drive(f, b, false, 20)
	}
	if got := f.Status(); got[0].Alive || got[1].Alive {
		t.Fatalf("backends still alive after failure streak: %+v", got)
	}
	// ...but the stores actually work (the EMA is pessimistic, the
	// backends are fine). A fully dead fleet must still attempt.
	_ = faulty
	if err := f.PutBlob(hash, data); err != nil {
		t.Fatalf("put with all-dead rotation: %v", err)
	}
	if got, err := f.GetBlob(hash); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("get with all-dead rotation: %q, %v", got, err)
	}
}

func TestFailoverNotFound(t *testing.T) {
	f, _, _ := testFleet(t, 3, Options{})
	_, err := f.GetBlob(crypto.Hash([]byte("never written")))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing blob: %v, want fs.ErrNotExist", err)
	}
}

func TestFailoverEMAHysteresis(t *testing.T) {
	f, _, _ := testFleet(t, 1, Options{})
	b := f.backends[0]
	// One failure must not kill a healthy backend (score 1 -> 0.7).
	f.report(b, false)
	if b.isDead() {
		t.Fatal("backend died after a single failure")
	}
	// A streak does.
	drive(f, b, false, 10)
	if !b.isDead() {
		t.Fatalf("backend alive after 11 straight failures (score %.3f)", b.status().Score)
	}
	died := f.Stats().BackendsDied
	if died != 1 {
		t.Fatalf("BackendsDied = %d, want 1", died)
	}
	// One success must not resurrect it (hysteresis)...
	f.report(b, true)
	if b.isDead() == false {
		t.Fatal("backend resurrected by a single success")
	}
	// ...but a streak of successes must.
	drive(f, b, true, 10)
	if b.isDead() {
		t.Fatalf("backend dead after a success streak (score %.3f)", b.status().Score)
	}
	if got := f.Stats().BackendsRevive; got != 1 {
		t.Fatalf("BackendsRevive = %d, want 1", got)
	}
}

func TestFailoverProbeResurrectsOnlyAnsweringBackends(t *testing.T) {
	f, faulty, _ := testFleet(t, 2, Options{})
	for _, b := range f.backends {
		drive(f, b, false, 20)
	}
	faulty[0].Kill() // b0 really is down; b1 just had a bad streak
	f.probe()
	st := f.Status()
	if st[0].Alive {
		t.Fatal("probe resurrected a killed backend")
	}
	if !st[1].Alive {
		t.Fatal("probe did not resurrect an answering backend")
	}
	stats := f.Stats()
	if stats.ProbesOK == 0 || stats.ProbesFailed == 0 {
		t.Fatalf("probe stats = %+v", stats)
	}
}

func TestFailoverBackgroundProber(t *testing.T) {
	clk := clock.NewFake()
	f, faulty, _ := testFleet(t, 1, Options{Clock: clk})
	faulty[0].Kill()
	drive(f, f.backends[0], false, 20)
	if !f.backends[0].isDead() {
		t.Fatal("setup: backend should be dead")
	}
	faulty[0].Revive()
	clk.Advance(DefaultProbeInterval - time.Nanosecond)
	if !f.backends[0].isDead() {
		t.Fatal("backend resurrected before the probe interval elapsed")
	}
	clk.Advance(time.Nanosecond)
	deadline := time.Now().Add(2 * time.Second)
	for f.backends[0].isDead() {
		if time.Now().After(deadline) {
			t.Fatal("background prober never resurrected the backend")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFailoverConcurrentFlapping is the -race model test: concurrent
// puts and gets while backends flap dead and alive. Every operation
// must either succeed with intact data or fail cleanly — and once the
// flapping stops, everything written must be readable and verified.
func TestFailoverConcurrentFlapping(t *testing.T) {
	f, faulty, _ := testFleet(t, 3, Options{WriteReplicas: 2, RetryAttempts: 2})

	const writers, blobsPerWriter = 4, 30
	stopFlap := make(chan struct{})
	var flapWG sync.WaitGroup
	flapWG.Add(1)
	go func() {
		defer flapWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stopFlap:
				return
			default:
			}
			victim := faulty[i%len(faulty)]
			victim.Kill()
			time.Sleep(200 * time.Microsecond)
			victim.Revive()
			time.Sleep(100 * time.Microsecond)
		}
	}()

	type blob struct{ hash, data []byte }
	written := make(chan blob, writers*blobsPerWriter)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < blobsPerWriter; i++ {
				data := []byte(fmt.Sprintf("writer %d blob %d", w, i))
				hash := crypto.Hash(data)
				if err := f.PutBlob(hash, data); err == nil {
					written <- blob{hash, data}
					// Read-back under flapping: success must be intact.
					if got, err := f.GetBlob(hash); err == nil && !bytes.Equal(got, data) {
						t.Errorf("writer %d: corrupt read of blob %d", w, i)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopFlap)
	flapWG.Wait()
	close(written)

	// Quiesce: revive everything, resurrect the rotation.
	for _, fb := range faulty {
		fb.Revive()
	}
	f.probe()
	n := 0
	for b := range written {
		got, err := f.GetBlob(b.hash)
		if err != nil {
			t.Fatalf("acknowledged blob unreadable after quiesce: %v", err)
		}
		if !bytes.Equal(got, b.data) {
			t.Fatal("acknowledged blob corrupt after quiesce")
		}
		n++
	}
	if n == 0 {
		t.Fatal("no puts succeeded during flapping — the fleet wedged")
	}
	t.Logf("%d/%d puts acknowledged during flapping, all verified", n, writers*blobsPerWriter)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("empty fleet accepted")
	}
	if _, err := New([]Backend{{Name: "b"}}, Options{}); err == nil {
		t.Fatal("nil store accepted")
	}
	// WriteReplicas above the fleet size is capped, not an error.
	f, err := New([]Backend{{Name: "b", Store: transport.NewMemBlobs()}},
		Options{WriteReplicas: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.opts.WriteReplicas != 1 {
		t.Fatalf("WriteReplicas = %d, want capped to 1", f.opts.WriteReplicas)
	}
}
