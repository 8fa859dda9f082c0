package blobfleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"faust/internal/transport"
)

// ErrInjected marks every failure manufactured by FaultyBlobs, so tests
// can tell injected faults from real backend errors.
var ErrInjected = errors.New("blobfleet: injected fault")

// FaultConfig describes the fault mix of a FaultyBlobs wrapper. All
// rates are probabilities in [0,1], drawn from one seeded source, so a
// given (seed, operation sequence) pair replays the same faults.
type FaultConfig struct {
	// Seed initializes the deterministic fault source (0 behaves like 1).
	Seed int64
	// ErrRate fails an operation outright with ErrInjected.
	ErrRate float64
	// Latency is added to every operation; Jitter adds a uniform random
	// extra on top.
	Latency time.Duration
	Jitter  time.Duration
	// HangRate blocks an operation until Revive is called or HangFor
	// elapses (default 1s), then fails it with ErrInjected — the
	// "backend stopped answering" failure mode, distinct from a fast
	// error.
	HangRate float64
	HangFor  time.Duration
	// ShortReadRate truncates a fetched payload — the classic partial
	// response a flaky object store returns.
	ShortReadRate float64
	// FlipRate flips one bit of a fetched payload — the byzantine
	// replica. Set to 1 for the tampered-replica ablation.
	FlipRate float64
}

// FaultCounts reports how many faults of each kind a wrapper injected.
type FaultCounts struct {
	Errors, Hangs, ShortReads, BitFlips, Delayed int64
}

// FaultyBlobs wraps a transport.BlobStore with deterministic seeded
// fault injection. It is safe for concurrent use; the fault source is
// shared and mutex-guarded so concurrent runs stay seeded (though their
// interleaving decides which op draws which fault). Kill and Revive
// flip the whole backend dead and back — the crash/recovery lever the
// failover tests pull mid-workload.
type FaultyBlobs struct {
	name  string
	inner transport.BlobStore

	mu     sync.Mutex
	cfg    FaultConfig
	rng    *rand.Rand
	killed bool
	wake   chan struct{} // closed by Revive to release hanging ops

	errors, hangs, shortReads, bitFlips, delayed atomic.Int64
}

var _ transport.BlobStore = (*FaultyBlobs)(nil)
var _ transport.BlobStoreCtx = (*FaultyBlobs)(nil)

// NewFaultyBlobs wraps inner with the given fault mix. The name labels
// injected-fault metrics and error messages.
func NewFaultyBlobs(name string, inner transport.BlobStore, cfg FaultConfig) *FaultyBlobs {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	if cfg.HangFor <= 0 {
		cfg.HangFor = time.Second
	}
	return &FaultyBlobs{
		name:  name,
		inner: inner,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(seed)),
		wake:  make(chan struct{}),
	}
}

// SetConfig replaces the fault mix (the seeded source keeps its state,
// so the stream of faults stays deterministic across reconfigurations).
func (f *FaultyBlobs) SetConfig(cfg FaultConfig) {
	f.mu.Lock()
	if cfg.HangFor <= 0 {
		cfg.HangFor = time.Second
	}
	f.cfg = cfg
	f.mu.Unlock()
}

// Kill makes every operation fail immediately, simulating a crashed or
// unreachable backend. Idempotent.
func (f *FaultyBlobs) Kill() {
	f.mu.Lock()
	f.killed = true
	f.mu.Unlock()
}

// Revive brings a killed backend back and releases any hanging
// operations. Idempotent.
func (f *FaultyBlobs) Revive() {
	f.mu.Lock()
	f.killed = false
	close(f.wake)
	f.wake = make(chan struct{})
	f.mu.Unlock()
}

// Killed reports whether the backend is currently killed.
func (f *FaultyBlobs) Killed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.killed
}

// Counts snapshots the injected-fault counters.
func (f *FaultyBlobs) Counts() FaultCounts {
	return FaultCounts{
		Errors:     f.errors.Load(),
		Hangs:      f.hangs.Load(),
		ShortReads: f.shortReads.Load(),
		BitFlips:   f.bitFlips.Load(),
		Delayed:    f.delayed.Load(),
	}
}

// draw rolls the pre-operation faults under the lock and returns what to
// do; the actual sleeping/blocking happens outside the lock.
func (f *FaultyBlobs) draw() (killed, failNow, hang bool, delay time.Duration, wake chan struct{}, hangFor time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.killed {
		return true, false, false, 0, nil, 0
	}
	cfg := f.cfg
	delay = cfg.Latency
	if cfg.Jitter > 0 {
		delay += time.Duration(f.rng.Int63n(int64(cfg.Jitter) + 1))
	}
	if cfg.HangRate > 0 && f.rng.Float64() < cfg.HangRate {
		return false, false, true, delay, f.wake, cfg.HangFor
	}
	if cfg.ErrRate > 0 && f.rng.Float64() < cfg.ErrRate {
		return false, true, false, delay, nil, 0
	}
	return false, false, false, delay, nil, 0
}

// gate applies the pre-operation faults (kill, latency, hang, error).
func (f *FaultyBlobs) gate(op string) error {
	killed, failNow, hang, delay, wake, hangFor := f.draw()
	if killed {
		fmFaults["kill"].Inc()
		return fmt.Errorf("%w: backend %s is killed (%s)", ErrInjected, f.name, op)
	}
	if delay > 0 {
		f.delayed.Add(1)
		fmFaults["latency"].Inc()
		time.Sleep(delay)
	}
	if hang {
		f.hangs.Add(1)
		fmFaults["hang"].Inc()
		t := time.NewTimer(hangFor)
		defer t.Stop()
		select {
		case <-wake:
		case <-t.C:
		}
		return fmt.Errorf("%w: backend %s hung (%s)", ErrInjected, f.name, op)
	}
	if failNow {
		f.errors.Add(1)
		fmFaults["error"].Inc()
		return fmt.Errorf("%w: backend %s errored (%s)", ErrInjected, f.name, op)
	}
	return nil
}

// PutBlob implements transport.BlobStore.
func (f *FaultyBlobs) PutBlob(hash, data []byte) error {
	return f.PutBlobCtx(context.Background(), hash, data)
}

// PutBlobCtx implements transport.BlobStoreCtx: injected faults happen
// inside the caller's traced attempt, and the context is forwarded when
// the inner store accepts one (a wrapped fleet), so fault injection is
// transparent to tracing.
func (f *FaultyBlobs) PutBlobCtx(ctx context.Context, hash, data []byte) error {
	if err := f.gate("put"); err != nil {
		return err
	}
	if bc, ok := f.inner.(transport.BlobStoreCtx); ok {
		return bc.PutBlobCtx(ctx, hash, data)
	}
	return f.inner.PutBlob(hash, data)
}

// GetBlob implements transport.BlobStore. Payload faults (short reads,
// bit flips) corrupt only the returned copy, never the stored blob —
// the backend misbehaves on the wire, like a real flaky or byzantine
// store, while its disk state stays whatever the inner store holds.
func (f *FaultyBlobs) GetBlob(hash []byte) ([]byte, error) {
	return f.GetBlobCtx(context.Background(), hash)
}

// GetBlobCtx implements transport.BlobStoreCtx (see PutBlobCtx).
func (f *FaultyBlobs) GetBlobCtx(ctx context.Context, hash []byte) ([]byte, error) {
	if err := f.gate("get"); err != nil {
		return nil, err
	}
	var data []byte
	var err error
	if bc, ok := f.inner.(transport.BlobStoreCtx); ok {
		data, err = bc.GetBlobCtx(ctx, hash)
	} else {
		data, err = f.inner.GetBlob(hash)
	}
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	cfg := f.cfg
	short := len(data) > 0 && cfg.ShortReadRate > 0 && f.rng.Float64() < cfg.ShortReadRate
	flip := len(data) > 0 && cfg.FlipRate > 0 && f.rng.Float64() < cfg.FlipRate
	var flipAt int
	if flip {
		flipAt = f.rng.Intn(len(data))
	}
	f.mu.Unlock()
	if short {
		f.shortReads.Add(1)
		fmFaults["short-read"].Inc()
		data = data[:len(data)/2]
	}
	if flip && len(data) > 0 {
		f.bitFlips.Add(1)
		fmFaults["bit-flip"].Inc()
		if flipAt >= len(data) {
			flipAt = len(data) - 1
		}
		cp := append([]byte(nil), data...)
		cp[flipAt] ^= 0x40
		data = cp
	}
	return data, nil
}
