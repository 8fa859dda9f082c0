package blobfleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"faust/internal/clock"
	"faust/internal/crypto"
	"faust/internal/obs"
	"faust/internal/obs/trace"
	"faust/internal/transport"
)

// Fleet policy. Retries are deliberately cheap and short: the layer
// above (the blob channel serving a client) is synchronous, so a slow
// backend must fail over quickly rather than be nursed. Each backend gets
// RetryAttempts tries per operation with capped exponential backoff
// (DefaultRetryBase doubling up to DefaultRetryCap, jittered), all under
// DefaultOpDeadline; the prober re-checks dead backends every
// DefaultProbeInterval.
const (
	DefaultWriteReplicas = 2
	DefaultRetryAttempts = 3
	DefaultRetryBase     = 2 * time.Millisecond
	DefaultRetryCap      = 50 * time.Millisecond
	DefaultOpDeadline    = 2 * time.Second
	DefaultProbeInterval = time.Second
)

// Options configures a Failover fleet. The zero value gets the defaults
// above.
type Options struct {
	// Shard labels this fleet's metrics and events (one fleet per shard
	// in a multi-tenant server).
	Shard string
	// WriteReplicas is W: puts go to the first W alive backends in
	// order. Capped at the fleet size.
	WriteReplicas int
	// RetryAttempts is how many tries one backend gets per operation.
	RetryAttempts int
	// Clock drives the backoff sleeps, op deadlines and prober (clock.Real
	// when nil).
	Clock clock.Clock
}

// Stats snapshots a fleet's counters (instance-local; the same numbers
// feed the process-wide obs registry).
type Stats struct {
	Puts, Gets     int64 // operations served (successfully)
	FailoverPuts   int64 // puts completed without the primary
	FailoverGets   int64 // gets served by a non-primary backend
	Retries        int64 // per-backend retry attempts
	ReadRepairs    int64 // secondary-served blobs written back to the primary
	TamperSkips    int64 // replicas skipped on content-hash mismatch
	ProbesOK       int64
	ProbesFailed   int64
	BackendsDied   int64 // rotation departures
	BackendsRevive int64 // rotation returns (traffic or probe)
}

// Failover is a transport.BlobStore composed of an ordered backend list
// with EMA aliveness, first-W-alive writes, fan-out verified reads with
// read repair, retry/backoff, and a background prober. Safe for
// concurrent use. Close stops the prober; the backends themselves are
// not closed (the fleet does not own their lifecycles).
type Failover struct {
	opts     Options
	backends []*backendState
	events   *obs.EventLog

	jmu sync.Mutex
	rng *rand.Rand // backoff jitter

	puts, gets, failoverPuts, failoverGets atomic.Int64
	retries, readRepairs, tamperSkips      atomic.Int64
	probesOK, probesFailed                 atomic.Int64
	died, revived                          atomic.Int64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

var _ transport.BlobStore = (*Failover)(nil)
var _ transport.BlobStoreCtx = (*Failover)(nil)

// Span names of the fleet's trace instrumentation. Per-backend attempt
// spans ("fleet.put:<name>") are precomputed at construction; the retry
// and repair names are shared constants.
const (
	spanFleetRetry  = "fleet.retry"
	spanFleetRepair = "fleet.repair"
)

// probeHash is the address the prober asks dead backends for: any
// answer — including a clean not-found — proves the backend is back.
var probeHash = crypto.Hash([]byte("blobfleet/aliveness-probe"))

// New builds a fleet over the ordered backends. The first backend is
// the primary: writes prefer it, reads try it first, read repair
// converges it. At least one backend is required.
func New(backends []Backend, opts Options) (*Failover, error) {
	if len(backends) == 0 {
		return nil, errors.New("blobfleet: a fleet needs at least one backend")
	}
	if opts.WriteReplicas <= 0 {
		opts.WriteReplicas = DefaultWriteReplicas
	}
	if opts.WriteReplicas > len(backends) {
		opts.WriteReplicas = len(backends)
	}
	if opts.RetryAttempts <= 0 {
		opts.RetryAttempts = DefaultRetryAttempts
	}
	if opts.Clock == nil {
		opts.Clock = clock.Real
	}

	f := &Failover{
		opts:   opts,
		events: obs.Default().Events(),
		rng:    rand.New(rand.NewSource(1)),
		stop:   make(chan struct{}),
	}
	for i, b := range backends {
		if b.Store == nil {
			return nil, fmt.Errorf("blobfleet: backend %d (%q) has no store", i, b.Name)
		}
		if b.Name == "" {
			b.Name = fmt.Sprintf("backend%d", i)
		}
		st := &backendState{Backend: b, idx: i, score: 1.0}
		st.putSpan = "fleet.put:" + b.Name
		st.getSpan = "fleet.get:" + b.Name
		st.upG = backendGauge(opts.Shard, b.Name)
		st.upG.Set(1)
		f.backends = append(f.backends, st)
	}
	f.wg.Add(1)
	go f.prober(f.opts.Clock.NewTicker(DefaultProbeInterval))
	return f, nil
}

// Close stops the background prober. The fleet stays usable (operations
// still fail over), but dead backends are no longer resurrected
// automatically.
func (f *Failover) Close() error {
	f.stopOnce.Do(func() { close(f.stop) })
	f.wg.Wait()
	return nil
}

// Status lists every backend's aliveness, in fleet order.
func (f *Failover) Status() []BackendStatus {
	out := make([]BackendStatus, len(f.backends))
	for i, b := range f.backends {
		out[i] = b.status()
	}
	return out
}

// Stats snapshots the fleet counters.
func (f *Failover) Stats() Stats {
	return Stats{
		Puts: f.puts.Load(), Gets: f.gets.Load(),
		FailoverPuts: f.failoverPuts.Load(), FailoverGets: f.failoverGets.Load(),
		Retries: f.retries.Load(), ReadRepairs: f.readRepairs.Load(),
		TamperSkips: f.tamperSkips.Load(),
		ProbesOK:    f.probesOK.Load(), ProbesFailed: f.probesFailed.Load(),
		BackendsDied: f.died.Load(), BackendsRevive: f.revived.Load(),
	}
}

// report feeds one operation outcome into a backend's aliveness and
// records the degraded-mode event if it caused a transition.
func (f *Failover) report(b *backendState, ok bool) {
	switch b.observe(ok) {
	case -1:
		f.died.Add(1)
		f.events.Record(obs.EventBackendDown, -1, f.opts.Shard,
			fmt.Sprintf("blob backend %s left the rotation (EMA below %.2f); fleet degraded", b.Name, DefaultDeadBelow))
	case +1:
		f.revived.Add(1)
		f.events.Record(obs.EventBackendUp, -1, f.opts.Shard,
			fmt.Sprintf("blob backend %s rejoined the rotation (EMA above %.2f)", b.Name, DefaultAliveAbove))
	}
}

// candidates returns the alive backends in fleet order; allDead reports
// whether the rotation is empty (callers then fall back to trying
// everything — a fully dead fleet must still attempt, not wedge).
func (f *Failover) candidates() (alive, dead []*backendState) {
	for _, b := range f.backends {
		if b.isDead() {
			dead = append(dead, b)
		} else {
			alive = append(alive, b)
		}
	}
	return alive, dead
}

// backoff returns the jittered sleep before retry k (0-based).
func (f *Failover) backoff(k int) time.Duration {
	d := DefaultRetryBase << uint(k)
	if d > DefaultRetryCap || d <= 0 {
		d = DefaultRetryCap
	}
	f.jmu.Lock()
	jitter := time.Duration(f.rng.Int63n(int64(d)/2 + 1))
	f.jmu.Unlock()
	return d/2 + jitter // uniform in [d/2, d]
}

// withRetries runs op against one backend with capped exponential
// backoff under the deadline. A not-found answer is returned immediately
// (the backend is fine, the blob just isn't there); everything else is
// retried while attempts and time budget remain. Each backoff sleep is
// recorded as a fleet.retry span of ctx's trace, so a traced operation
// that limped through retries shows where the time went.
func (f *Failover) withRetries(ctx context.Context, deadline time.Time, op func() error) error {
	var err error
	for attempt := 0; attempt < f.opts.RetryAttempts; attempt++ {
		if err = op(); err == nil || errors.Is(err, fs.ErrNotExist) {
			return err
		}
		if attempt == f.opts.RetryAttempts-1 {
			break
		}
		sleep := f.backoff(attempt)
		if f.opts.Clock.Now().Add(sleep).After(deadline) {
			break
		}
		f.retries.Add(1)
		retryStart := time.Now()
		f.opts.Clock.Sleep(sleep)
		trace.Event(ctx, spanFleetRetry, retryStart)
	}
	return err
}

// verified reports whether data matches a SHA-256-sized address (other
// address sizes pass trivially): the address commits the content, so the
// fleet rejects a byzantine replica's garbage locally and fails over to
// the next replica instead of serving it.
func verified(hash, data []byte) bool {
	if len(hash) != crypto.HashSize {
		return true
	}
	return bytes.Equal(crypto.Hash(data), hash)
}

// PutBlob implements transport.BlobStore: the blob goes to the first W
// alive backends in fleet order, skipping past failures to later
// backends so the replication factor survives individual faults. One
// durable copy is enough to succeed (the trust model needs any one
// verifiable replica); zero copies is an error.
func (f *Failover) PutBlob(hash, data []byte) error {
	return f.PutBlobCtx(context.Background(), hash, data)
}

// PutBlobCtx implements transport.BlobStoreCtx: PutBlob with every
// per-backend attempt (including its retries) recorded as a span of
// ctx's trace.
func (f *Failover) PutBlobCtx(ctx context.Context, hash, data []byte) error {
	deadline := f.opts.Clock.Now().Add(DefaultOpDeadline)
	alive, dead := f.candidates()
	cands := alive
	if len(cands) == 0 {
		cands = dead // fully dead fleet: try anyway rather than wedge
	}
	wrote := 0
	wroteToPrimary := false
	var errs []error
	for _, b := range cands {
		if wrote >= f.opts.WriteReplicas {
			break
		}
		actx, h := trace.Child(ctx, b.putSpan)
		err := f.withRetries(actx, deadline, func() error { return b.Store.PutBlob(hash, data) })
		h.End()
		f.report(b, err == nil)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", b.Name, err))
			continue
		}
		wrote++
		if b.idx == 0 {
			wroteToPrimary = true
		}
	}
	if wrote == 0 {
		return fmt.Errorf("blobfleet: put %x failed on all %d backends: %w",
			shortHash(hash), len(cands), errors.Join(errs...))
	}
	f.puts.Add(1)
	if !wroteToPrimary {
		f.failoverPuts.Add(1)
		fmFailovers["put"].Inc()
	}
	return nil
}

// GetBlob implements transport.BlobStore: reads fan through the alive
// backends in fleet order and the first answer that passes content-hash
// verification wins. A tampered replica is skipped (and demoted in the
// aliveness score — a byzantine backend is worse than a dead one); a
// clean not-found moves on to the next backend without penalty. Dead
// backends get one last-resort attempt only if no alive backend served
// the blob. A secondary-served blob is written back to the primary.
func (f *Failover) GetBlob(hash []byte) ([]byte, error) {
	return f.GetBlobCtx(context.Background(), hash)
}

// GetBlobCtx implements transport.BlobStoreCtx: GetBlob with every
// per-backend attempt recorded as a span of ctx's trace.
func (f *Failover) GetBlobCtx(ctx context.Context, hash []byte) ([]byte, error) {
	deadline := f.opts.Clock.Now().Add(DefaultOpDeadline)
	alive, dead := f.candidates()

	notFound := 0
	var errs []error
	try := func(b *backendState, retry bool) ([]byte, bool) {
		actx, h := trace.Child(ctx, b.getSpan)
		defer h.End()
		var data []byte
		op := func() error {
			var err error
			data, err = b.Store.GetBlob(hash)
			return err
		}
		var err error
		if retry {
			err = f.withRetries(actx, deadline, op)
		} else {
			err = op()
		}
		switch {
		case err == nil:
			if !verified(hash, data) {
				// The address commits the content: this replica is
				// byzantine for this blob. Skip it, demote it, remember.
				f.tamperSkips.Add(1)
				f.events.Record(obs.EventBlobTamper, -1, f.opts.Shard,
					fmt.Sprintf("backend %s served a corrupt payload for %x; skipped", b.Name, shortHash(hash)))
				f.report(b, false)
				errs = append(errs, fmt.Errorf("%s: payload failed content-hash verification", b.Name))
				return nil, false
			}
			f.report(b, true)
			return data, true
		case errors.Is(err, fs.ErrNotExist):
			f.report(b, true) // the backend answered; it just lacks the blob
			notFound++
			return nil, false
		default:
			f.report(b, false)
			errs = append(errs, fmt.Errorf("%s: %w", b.Name, err))
			return nil, false
		}
	}

	serve := func(b *backendState, data []byte) []byte {
		f.gets.Add(1)
		if b.idx != 0 {
			f.failoverGets.Add(1)
			fmFailovers["get"].Inc()
			f.readRepair(ctx, hash, data)
		}
		return data
	}
	for _, b := range alive {
		if data, ok := try(b, true); ok {
			return serve(b, data), nil
		}
	}
	for _, b := range dead {
		if data, ok := try(b, false); ok {
			return serve(b, data), nil
		}
	}
	if len(errs) == 0 && notFound > 0 {
		return nil, fmt.Errorf("blobfleet: blob %x: %w", shortHash(hash), fs.ErrNotExist)
	}
	return nil, fmt.Errorf("blobfleet: get %x failed on all backends (%d clean not-founds): %w",
		shortHash(hash), notFound, errors.Join(errs...))
}

// readRepair copies a secondary-served blob back to the primary so a
// recovered (or lagging) primary converges from live read traffic. Best
// effort and synchronous: a single attempt whose result still feeds the
// primary's aliveness.
func (f *Failover) readRepair(ctx context.Context, hash, data []byte) {
	primary := f.backends[0]
	if primary.isDead() {
		return
	}
	_, h := trace.Child(ctx, spanFleetRepair)
	err := primary.Store.PutBlob(hash, data)
	h.End()
	f.report(primary, err == nil)
	if err == nil {
		f.readRepairs.Add(1)
	}
}

// prober periodically re-checks dead backends so the fleet heals
// without operator action.
func (f *Failover) prober(t *clock.Ticker) {
	defer f.wg.Done()
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
			f.probe()
		}
	}
}

// probe probes every dead backend once: any answer — data or a clean
// not-found — resurrects it into the rotation immediately (live traffic
// then keeps its score honest); an error keeps it dead.
func (f *Failover) probe() {
	for _, b := range f.backends {
		if !b.isDead() {
			continue
		}
		_, err := b.Store.GetBlob(probeHash)
		ok := err == nil || errors.Is(err, fs.ErrNotExist)
		if !ok {
			f.probesFailed.Add(1)
			f.report(b, false)
			continue
		}
		f.probesOK.Add(1)
		if b.resurrect() {
			f.revived.Add(1)
			f.events.Record(obs.EventBackendUp, -1, f.opts.Shard,
				fmt.Sprintf("blob backend %s answered a probe and rejoined the rotation", b.Name))
		}
	}
}

func shortHash(hash []byte) []byte {
	if len(hash) > 8 {
		return hash[:8]
	}
	return hash
}
