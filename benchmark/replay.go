package main

import (
	"fmt"
	"os"
	"time"

	"faust/internal/crypto"
	"faust/internal/obs"
	"faust/internal/store"
	"faust/internal/wire"
)

// Replay measures what no decorator on the op path can: crypto and the
// wire codec, which have no interface to wrap, and store.FileBlobs, which
// kv-mix keeps off its op path (see kvEnv.mem). It runs their public
// functions again, after the load has stopped, on the very messages and
// blobs the decorators captured.

type replayResult struct {
	signUS, verifyUS, verifyBatchUS float64
	hashUSPerKiB                    float64
	encodeUS, decodeUS              float64
	blobPutUS, blobGetUS            float64
}

const (
	replayBatch  = 16 // signatures per VerifyBatch call
	replayRounds = 3
)

func timeEach(n int, f func(i int)) float64 {
	if n == 0 {
		return 0
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(start)) / float64(n) / 1e3
}

func replay(captured []wire.Message, ring *crypto.Keyring, signers []*crypto.Signer) replayResult {
	var res replayResult
	var submits []*wire.Submit
	for _, m := range captured {
		if s, ok := m.(*wire.Submit); ok && s.Inv.Client >= 0 && s.Inv.Client < len(signers) {
			submits = append(submits, s)
		}
	}
	if len(submits) > 0 {
		payloads := make([][]byte, len(submits))
		for i, s := range submits {
			payloads[i] = wire.SubmitPayload(s.Inv.Op, s.Inv.Reg, s.T, s.Inv.Trace)
		}
		n := len(submits) * replayRounds
		res.signUS = timeEach(n, func(i int) {
			s := submits[i%len(submits)]
			_ = signers[s.Inv.Client].Sign(crypto.DomainSubmit, payloads[i%len(submits)])
		})
		res.verifyUS = timeEach(n, func(i int) {
			s := submits[i%len(submits)]
			_ = ring.Verify(s.Inv.Client, s.Inv.SubmitSig, crypto.DomainSubmit, payloads[i%len(submits)])
		})
		jobs := make([]crypto.VerifyJob, replayBatch)
		batches := n / replayBatch
		if batches < 1 {
			batches = 1
		}
		perBatch := timeEach(batches, func(b int) {
			for j := range jobs {
				k := (b*replayBatch + j) % len(submits)
				s := submits[k]
				jobs[j] = crypto.VerifyJob{Ring: ring, Signer: s.Inv.Client, Domain: crypto.DomainSubmit,
					Sig: s.Inv.SubmitSig, Payload: payloads[k]}
			}
			crypto.VerifyBatch(jobs)
		})
		res.verifyBatchUS = perBatch / replayBatch
	}

	kib := make([]byte, 1024)
	for i := range kib {
		kib[i] = byte(i)
	}
	var digest []byte
	res.hashUSPerKiB = timeEach(4096, func(int) { digest = crypto.HashInto(digest[:0], kib) })

	if len(captured) > 0 {
		n := len(captured) * replayRounds
		var buf []byte
		res.encodeUS = timeEach(n, func(i int) { buf = wire.AppendEncode(buf[:0], captured[i%len(captured)]) })
		encoded := make([][]byte, len(captured))
		for i, m := range captured {
			encoded[i] = wire.Encode(m)
		}
		res.decodeUS = timeEach(n, func(i int) { _, _ = wire.Decode(encoded[i%len(encoded)]) })
	}
	return res
}

// replayFileBlobs writes the sampled blobs to a fresh store.FileBlobs under
// dataRoot (no sync, as the issue configured it) and reads them back, and
// returns the median time per blob in microseconds. A median, because
// creating a file on the reference runner's ext4 costs 8 us or 200 us
// depending on the state of its journal.
func replayFileBlobs(dataRoot string, blobs []blobSample) (putUS, getUS float64, err error) {
	if len(blobs) == 0 {
		return 0, 0, nil
	}
	dir, err := os.MkdirTemp(dataRoot, "blobreplay-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	fb, err := store.OpenFileBlobs(dir, false)
	if err != nil {
		return 0, 0, err
	}
	puts := make([]float64, len(blobs))
	gets := make([]float64, len(blobs))
	for i, b := range blobs {
		start := time.Now()
		if err := fb.PutBlob(b.hash, b.data); err != nil {
			return 0, 0, fmt.Errorf("blob replay: %w", err)
		}
		puts[i] = float64(time.Since(start)) / 1e3
	}
	for i, b := range blobs {
		start := time.Now()
		if _, err := fb.GetBlob(b.hash); err != nil {
			return 0, 0, fmt.Errorf("blob replay: %w", err)
		}
		gets[i] = float64(time.Since(start)) / 1e3
	}
	return median(puts), median(gets), nil
}

// sigCounts reads how many Ed25519 signatures the process has issued and
// checked so far, from the histograms the crypto package publishes.
func sigCounts() (signs, verifies int64) {
	reg := obs.Default()
	return reg.Histogram("faust_ed25519_sign_ns").Snapshot().Count,
		reg.Histogram("faust_ed25519_verify_ns").Snapshot().Count
}
