package crypto

import "faust/internal/obs"

// Verification of a dispatch batch. A server that holds the public
// keyring may check the SUBMIT-signatures of a whole dispatch batch as
// hygiene, shedding forged traffic before it pollutes the operation log.
// Each signature is one single check (Keyring.Verify), which on the
// kernel's 16-doubling chain costs less than a randomized batch equation
// would per signature at every batch size the dispatcher forms.

// Batch-verification volume of the dispatch pipeline.
var vmBatches = obs.Default().Counter("faust_verify_batch_total")

func init() {
	obs.Default().Help("faust_verify_batch_total", "SUBMIT signature batches verified by the dispatch pipeline")
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

// VerifyBatch checks every job with Keyring.Verify and sets its OK
// field. A job that fails fails alone.
//
//faustlint:hotpath
func VerifyBatch(jobs []VerifyJob) {
	if len(jobs) == 0 {
		return
	}
	vmBatches.Inc()
	for i := range jobs {
		j := &jobs[i]
		j.OK = j.Ring != nil && j.Ring.Verify(j.Signer, j.Sig, j.Domain, j.Payload)
	}
}
