package faust

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func testService(t *testing.T, n int) *Service {
	t.Helper()
	svc := NewTestService(n, 77,
		WithProbeTimeout(50*time.Millisecond),
		WithPollInterval(10*time.Millisecond))
	t.Cleanup(svc.Close)
	return svc
}

func TestServiceQuickstartFlow(t *testing.T) {
	svc := testService(t, 3)
	alice, err := svc.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := svc.Client(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Client(2); err != nil {
		t.Fatal(err)
	}

	ts, err := alice.Write([]byte("report-v1"))
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	val, _, err := bob.Read(0)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(val) != "report-v1" {
		t.Fatalf("read = %q", val)
	}
	if err := alice.WaitStable(ts, 10*time.Second); err != nil {
		t.Fatalf("stability: %v", err)
	}
	if !alice.IsStable(ts) {
		t.Fatal("IsStable disagrees with WaitStable")
	}
}

func TestGeneratedKeysService(t *testing.T) {
	svc, err := NewService(2, WithoutDummyReads())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	c0, err := svc.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c0.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	c1, err := svc.Client(1)
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := c1.Read(0)
	if err != nil || string(v) != "x" {
		t.Fatalf("read = %q, %v", v, err)
	}
}

func TestServiceValidation(t *testing.T) {
	if _, err := NewService(0); err == nil {
		t.Fatal("NewService(0) accepted")
	}
	svc := testService(t, 2)
	if _, err := svc.Client(5); err == nil {
		t.Fatal("out-of-range client accepted")
	}
	if _, err := svc.Client(-1); err == nil {
		t.Fatal("negative client accepted")
	}
	c, err := svc.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Read(9); err == nil {
		t.Fatal("out-of-range register accepted")
	}
	if svc.N() != 2 || c.ID() != 0 {
		t.Fatal("accessors wrong")
	}
}

// TestPollIntervalMustBePositive: a non-positive poll interval is refused
// when the service is built, not discovered as a ticker panic in the
// first Client's background loops.
func TestPollIntervalMustBePositive(t *testing.T) {
	for _, d := range []time.Duration{0, -time.Second} {
		if _, err := NewService(2, WithPollInterval(d)); err == nil {
			t.Errorf("NewService accepted poll interval %v", d)
		}
	}
}

func TestClientMemoized(t *testing.T) {
	svc := testService(t, 2)
	a, err := svc.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second Client(0) returned a different instance")
	}
	if _, err := svc.Client(0, OnFail(func(error) {})); err == nil {
		t.Fatal("options on existing client silently ignored")
	}
}

func TestOnStableCallback(t *testing.T) {
	svc := testService(t, 2)
	var mu sync.Mutex
	var cuts []Cut
	c0, err := svc.Client(0, OnStable(func(w Cut) {
		mu.Lock()
		cuts = append(cuts, w)
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Client(1); err != nil {
		t.Fatal(err)
	}
	ts, err := c0.Write([]byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c0.WaitStable(ts, 10*time.Second); err != nil {
		t.Fatalf("stability: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(cuts) == 0 {
		t.Fatal("no stable notifications")
	}
}

func TestStopThenHalted(t *testing.T) {
	svc := testService(t, 2)
	c, err := svc.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	c.Stop()
	if _, err := c.Write([]byte("x")); !errors.Is(err, ErrHalted) {
		t.Fatalf("write after stop: %v", err)
	}
	if failed, _ := c.Failed(); failed {
		t.Fatal("Stop reported as failure")
	}
}

func TestTimestampsMonotonicAcrossKinds(t *testing.T) {
	svc := testService(t, 2)
	c, err := svc.Client(0)
	if err != nil {
		t.Fatal(err)
	}
	var last Timestamp
	for i := 0; i < 6; i++ {
		var ts Timestamp
		var err error
		if i%2 == 0 {
			ts, err = c.Write([]byte{byte('a' + i)})
		} else {
			_, ts, err = c.Read(1)
		}
		if err != nil {
			t.Fatal(err)
		}
		if ts <= last {
			t.Fatalf("timestamp %d after %d", ts, last)
		}
		last = ts
	}
}
