package crypto

import (
	"runtime"
	"sync"
	"sync/atomic"

	"faust/internal/obs"
)

// Batched signature verification for the server-side dispatch pipeline.
//
// The paper's protocol puts every verification burden on the clients — the
// server is untrusted and can serve without holding a single key. A server
// that does hold the public keyring may still verify SUBMIT signatures as
// hygiene (shedding forged traffic before it pollutes the operation log)
// and, more importantly for throughput, it can verify a whole dispatch
// batch at once: Ed25519 verifies are embarrassingly parallel, so a batch
// drained from the inbox fans out across a worker pool GOMAXPROCS wide
// while the single-writer apply stage stays sequential. The pool is
// shared process-wide by every dispatcher, matching the "one server, many
// shards" deployment: parallelism is bounded by cores, not by tenant
// count.
//
// VerifyBatch reports per-job results rather than a single verdict: one
// forged signature must reject only its own operation, never the batch.

// Batch-verification volume: how often the dispatcher verified a drained
// batch at all, and how often the batch was wide enough to fan out across
// the worker pool (a batch of one, or GOMAXPROCS 1, verifies inline on
// the dispatcher goroutine).
var (
	vmBatches  = obs.Default().Counter("faust_verify_batch_total")
	vmParallel = obs.Default().Counter("faust_verify_parallel_total")
)

func init() {
	r := obs.Default()
	r.Help("faust_verify_batch_total", "SUBMIT signature batches verified by the dispatch pipeline")
	r.Help("faust_verify_parallel_total", "verification batches that fanned out across the worker pool")
}

// VerifyJob is one signature check inside a batch. The caller fills every
// field but OK; VerifyBatch sets OK. Payload must stay immutable until
// VerifyBatch returns.
type VerifyJob struct {
	// Ring is the keyring to verify against. Jobs in one batch may carry
	// different rings. A nil ring fails the job.
	Ring    *Keyring
	Signer  int
	Domain  byte
	Sig     []byte
	Payload []byte
	OK      bool
}

// verifyTask carries one batch through the pool. Workers (and the
// submitting dispatcher) claim jobs by atomic index increment, so a slow
// verify never blocks the others and a stale worker waking up after the
// batch completed sees an exhausted index and touches nothing. Tasks are
// allocated per batch — one allocation amortized over the whole batch —
// because recycling them would race a stale worker's index read against
// the reset.
type verifyTask struct {
	jobs []VerifyJob
	next atomic.Int64
	wg   sync.WaitGroup
}

func (t *verifyTask) run() {
	for {
		i := int(t.next.Add(1)) - 1
		if i >= len(t.jobs) {
			return
		}
		verifyOne(&t.jobs[i])
		t.wg.Done()
	}
}

func verifyOne(j *VerifyJob) {
	j.OK = j.Ring != nil && j.Ring.Verify(j.Signer, j.Sig, j.Domain, j.Payload)
}

// verifyQueue hands tasks to parked pool workers. Sends are non-blocking:
// with every worker busy the submitting dispatcher simply keeps more of
// the batch for itself, so progress never depends on pool capacity.
var verifyQueue = make(chan *verifyTask, 64)

// liveWorkers counts started pool goroutines. Workers are spawned lazily
// up to GOMAXPROCS and then parked on verifyQueue forever —
// idle workers cost one blocked goroutine each, and single-CPU or
// verification-free deployments never start any.
var liveWorkers atomic.Int64

func ensureWorkers(n int) {
	for {
		cur := liveWorkers.Load()
		if int(cur) >= n {
			return
		}
		if liveWorkers.CompareAndSwap(cur, cur+1) {
			go func() {
				for t := range verifyQueue {
					t.run()
				}
			}()
		}
	}
}

// VerifyBatch checks every job and sets its OK field. Batches of one (or
// GOMAXPROCS 1) verify inline on the caller's goroutine — one
// ed25519.Verify and no synchronization. Wider batches fan out: the
// caller participates too, so the batch completes even when every pool
// worker is busy elsewhere.
//
//faustlint:hotpath
func VerifyBatch(jobs []VerifyJob) {
	n := len(jobs)
	if n == 0 {
		return
	}
	vmBatches.Inc()
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := range jobs {
			verifyOne(&jobs[i])
		}
		return
	}
	vmParallel.Inc()
	ensureWorkers(w - 1)
	t := &verifyTask{jobs: jobs}
	t.wg.Add(n)
dispatch:
	for i := 0; i < w-1; i++ {
		select {
		case verifyQueue <- t:
		default:
			break dispatch // no parked worker; the caller absorbs the rest
		}
	}
	t.run()
	t.wg.Wait()
}
