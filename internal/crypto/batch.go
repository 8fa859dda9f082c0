package crypto

import (
	"bytes"
	"crypto/ed25519"
	"sync"
	"time"

	"faust/internal/crypto/internal/edwards25519"
	"faust/internal/obs"
)

// Batched signature verification. A USTOR client checks every signature
// a REPLY carries (Algorithm 1 lines 35, 41, 43, 49 and 50), and a server
// that holds the public keyring may check the SUBMIT-signatures of a
// whole dispatch batch as hygiene (shedding forged traffic before it
// pollutes the operation log). Either way many signatures are decided at
// once, so they are decided by one randomized batch equation (see the
// edwards25519 package) instead of one ed25519.Verify each. The verdict
// per signature is unchanged: a batch whose equation fails is resolved
// by ed25519.Verify one signature at a time.

// Batch-verification volume of the dispatch pipeline.
var vmBatches = obs.Default().Counter("faust_verify_batch_total")

func init() {
	obs.Default().Help("faust_verify_batch_total", "SUBMIT signature batches verified by the dispatch pipeline")
}

// Batch gathers the signature checks that one batch equation decides.
// Keyring.VerifyBatched adds a check, Verify decides them all. The zero
// value is an empty batch; Reset empties it and keeps its storage, so a
// reused Batch verifies without allocating (the equation's own scratch
// is pooled). A Batch is not safe for concurrent use.
type Batch struct {
	jobs []batchJob
	msgs []byte // the jobs' Ed25519 messages, back to back
}

// eqPool recycles the scratch of batch equations: more than a KiB per
// signature, which every client and dispatcher would otherwise keep for
// the largest batch it ever verified.
var eqPool = sync.Pool{New: func() any { return new(edwards25519.Batch) }}

// batchJob is one Ed25519 verification waiting in a Batch.
type batchJob struct {
	ring     *Keyring
	signer   int
	memo     *PairMemo          // learns the signature once it verifies; nil for none
	key      [1 + HashSize]byte // what memo remembers the signature under
	ed       [ed25519.SignatureSize]byte
	from, to int // the message is msgs[from:to]
}

// Reset empties the batch.
func (b *Batch) Reset() {
	b.jobs, b.msgs = b.jobs[:0], b.msgs[:0]
}

// Len returns the number of Ed25519 verifications waiting in the batch.
func (b *Batch) Len() int { return len(b.jobs) }

// VerifyBatched is VerifyMemo with the Ed25519 verification deferred to
// b. It returns false for exactly the signatures VerifyMemo rejects
// without an Ed25519 verification: an out-of-range client, a malformed
// signature. A signature that memo knows, or that equals one waiting in
// b for the same memo, returns true and costs nothing more; any other
// joins b and returns true, and its verdict is b.Verify's. Until then,
// the signature counts as known to memo for later calls with the same b,
// exactly as VerifyMemo would have recorded it.
func (k *Keyring) VerifyBatched(b *Batch, memo *PairMemo, i int, sig []byte, domain byte, payload []byte) bool {
	if i < 0 || i >= len(k.pubs) {
		return false
	}
	var key [1 + HashSize]byte
	var ed []byte
	switch len(sig) {
	case ed25519.SignatureSize:
		if domain == DomainPair {
			return false // roots are only ever reached through a leaf
		}
		if memo != nil {
			key = plainKey(domain, payload)
		}
		ed = sig
	case PairSigSize, TripleSigSize:
		var ok bool
		if key, ed, ok = treeMessage(sig, domain, payload); !ok {
			return false
		}
	default:
		return false
	}
	if b.known(memo, i, &key, ed) {
		return true
	}
	from := len(b.msgs)
	if len(sig) == ed25519.SignatureSize {
		b.msgs = append(append(b.msgs, domain), payload...)
	} else {
		b.msgs = append(b.msgs, key[:]...)
	}
	b.jobs = append(b.jobs, batchJob{ring: k, signer: i, memo: memo, key: key, from: from, to: len(b.msgs)})
	copy(b.jobs[len(b.jobs)-1].ed[:], ed)
	return true
}

// known reports whether memo, as it will be once the jobs waiting in b
// for it have verified, holds signer's signature ed under key.
func (b *Batch) known(memo *PairMemo, signer int, key *[1 + HashSize]byte, ed []byte) bool {
	if memo == nil {
		return false
	}
	for j := len(b.jobs) - 1; j >= 0; j-- {
		if job := &b.jobs[j]; job.memo == memo {
			return job.signer == signer && job.key == *key && bytes.Equal(job.ed[:], ed)
		}
	}
	return memo.hit(signer, key, ed)
}

// Verify decides every check waiting in b and returns -1 when all hold,
// or the index, in the order they joined, of the first that does not.
// One check is one ed25519.Verify; more are one batch equation, and
// when that fails, ed25519.Verify one at a time up to the first bad
// one. The memos learn each signature found valid, in the order the
// checks joined.
func (b *Batch) Verify() int { return b.verifyFrom(0) }

// verifyFrom is Verify for the checks from index start on.
func (b *Batch) verifyFrom(start int) int {
	jobs := b.jobs[start:]
	if len(jobs) > 1 && b.equation(jobs) {
		for j := range jobs {
			jobs[j].remember()
		}
		return -1
	}
	for j := range jobs {
		job := &jobs[j]
		if !job.ring.verifyEd(job.signer, b.msgs[job.from:job.to], job.ed[:]) {
			return start + j
		}
		job.remember()
	}
	return -1
}

// equation solves the batch equation of jobs. It counts as one equation
// in faust_ed25519_batch_ns and, when it holds, as one verification per
// job in faust_ed25519_verify_ns, each taking an equal share of its time.
func (b *Batch) equation(jobs []batchJob) bool {
	start := obs.StartTimer()
	eq := eqPool.Get().(*edwards25519.Batch)
	eq.Reset()
	ok := true
	for j := range jobs {
		job := &jobs[j]
		if ok = eq.Add(job.ring.keys[job.signer], b.msgs[job.from:job.to], job.ed[:]); !ok {
			break
		}
	}
	ok = ok && eq.Verify()
	eqPool.Put(eq)
	if !start.IsZero() {
		d := time.Since(start).Nanoseconds()
		batchNs.Observe(d)
		for j := 0; ok && j < len(jobs); j++ {
			verifyNs.Observe(d / int64(len(jobs)))
		}
	}
	return ok
}

func (j *batchJob) remember() {
	if j.memo != nil {
		j.memo.set(j.signer, &j.key, j.ed[:])
	}
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

// batchPool recycles the Batch of VerifyBatch, so a dispatcher's steady
// state allocates nothing per batch.
var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// VerifyBatch checks every job and sets its OK field, with one batch
// equation for all the jobs it can decide (see Batch). A job that fails
// fails alone: the equation is solved again for the jobs after it, so a
// forged signature rejects only its own job, never the batch.
//
//faustlint:hotpath
func VerifyBatch(jobs []VerifyJob) {
	if len(jobs) == 0 {
		return
	}
	vmBatches.Inc()
	b := batchPool.Get().(*Batch)
	b.Reset()
	for i := range jobs {
		j := &jobs[i]
		j.OK = j.Ring != nil && j.Ring.VerifyBatched(b, nil, j.Signer, j.Sig, j.Domain, j.Payload)
	}
	// The jobs still OK joined b, in order: jobs[i] is check k of b.
	i, k := 0, 0
	for start := 0; start < b.Len(); {
		bad := b.verifyFrom(start)
		if bad < 0 {
			break
		}
		for ; k <= bad; i++ {
			if jobs[i].OK {
				jobs[i].OK = k < bad
				k++
			}
		}
		start = bad + 1
	}
	batchPool.Put(b)
}
