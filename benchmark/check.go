package main

import (
	"bytes"
	"fmt"
	"time"

	"faust/internal/consistency"
	"faust/internal/store"
	"faust/internal/ustor"
)

// The correctness gate. A benchmark number from a run that returned wrong
// answers is worthless, so the same command that measures also checks, and
// any failure here makes the run report correct=false and exit non-zero.

// checkLinearizable passes the recorded prefix of a register workload
// through the polynomial SWMR checker. The servers in these workloads are
// honest, so anything but a linearizable history is a bug.
func (e *env) checkLinearizable() error {
	if e.hist == nil {
		return nil
	}
	h := e.hist.History().Complete()
	if res := consistency.CheckLinearizable(h); !res.OK {
		return fmt.Errorf("history of %d ops is not linearizable: %s", len(h.Ops), res.Reason)
	}
	return nil
}

// reopenResult is what closing and reopening a WAL directory found.
type reopenResult struct {
	replayed int
	took     time.Duration
}

// freeze returns the state the persistent server holds and closes it. The
// directory it leaves must recover to exactly that state. Traffic must
// have stopped before the call.
func (w *walEnv) freeze() ([]byte, error) {
	state := w.ps.ExportState()
	if err := w.ps.Err(); err != nil {
		return nil, fmt.Errorf("persistent server broke during the run: %w", err)
	}
	if err := w.closeStore(); err != nil {
		return nil, fmt.Errorf("closing WAL: %w", err)
	}
	return state, nil
}

// recoverMatches recovers a fresh server from the directory and requires
// its state to equal want byte for byte: everything acknowledged must be
// replayable.
func (w *walEnv) recoverMatches(want []byte) (reopenResult, error) {
	var res reopenResult
	start := time.Now()
	fb, err := store.OpenFile(w.dir, walOptions(w.fsync))
	if err != nil {
		return res, fmt.Errorf("reopening WAL: %w", err)
	}
	ps, err := store.Open(ustor.NewServer(w.n), fb, store.Options{SnapshotEvery: snapshotEvery})
	if err != nil {
		_ = fb.Close()
		return res, fmt.Errorf("recovering from WAL: %w", err)
	}
	res.took = time.Since(start)
	_, res.replayed = ps.Recovered()
	got := ps.ExportState()
	if err := ps.Close(); err != nil {
		return res, fmt.Errorf("closing recovered WAL: %w", err)
	}
	if !bytes.Equal(want, got) {
		return res, fmt.Errorf("recovered state differs from the pre-close state (%d vs %d bytes, %d records replayed)",
			len(got), len(want), res.replayed)
	}
	return res, nil
}

// checkKV reports reads the per-key model could not explain.
func (k *kvEnv) checkKV() error {
	if n := k.wrong.Load(); n > 0 {
		k.wrongMu.Lock()
		defer k.wrongMu.Unlock()
		return fmt.Errorf("%d KV reads disagree with the model; first: %s", n, k.wrongMsg)
	}
	return nil
}

// verify runs every check that applies to the environment, after traffic
// has stopped. It returns the reopen measurement for the WAL workloads.
func (e *env) verify(load loadResult) (reopenResult, error) {
	var reopen reopenResult
	if load.firstErr != nil {
		return reopen, fmt.Errorf("%d of %d operations failed; first: %w", load.failed, load.attempted, load.firstErr)
	}
	if err := e.failed(); err != nil {
		return reopen, err
	}
	if err := e.checkLinearizable(); err != nil {
		return reopen, err
	}
	if e.kv != nil {
		if err := e.kv.checkKV(); err != nil {
			return reopen, err
		}
	}
	e.stop()
	if e.wal != nil {
		state, err := e.wal.freeze()
		if err != nil {
			return reopen, err
		}
		return e.wal.recoverMatches(state)
	}
	return reopen, nil
}
