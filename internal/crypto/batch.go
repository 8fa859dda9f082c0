package crypto

// Verification of a dispatch batch. A server that holds the public
// keyring may check the SUBMIT-signatures of a whole dispatch batch as
// hygiene, shedding forged traffic before it pollutes the operation log.
// Each signature is one single check (Keyring.Verify), which on the
// kernel's 16-doubling chain costs less than a randomized batch equation
// would per signature at every batch size the dispatcher forms.

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
	for i := range jobs {
		j := &jobs[i]
		j.OK = j.Ring != nil && j.Ring.Verify(j.Signer, j.Sig, j.Domain, j.Payload)
	}
}
