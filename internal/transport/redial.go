package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"faust/internal/clock"
	"faust/internal/obs/trace"
)

// A tcpBlobChannel is poisoned permanently by its first connection
// failure: the sticky error fails every later call. That is the right
// contract for the channel itself (callers must not silently lose
// pipelined requests), but it makes one transient drop fatal to a whole
// client session. RedialBlobChannel restores liveness at the layer
// above: it owns a current channel and, when an operation fails with a
// connection-level error (ErrBlobChannelBroken or ErrClosed from a died
// channel), discards it, dials a fresh one and retries the operation —
// a bounded number of times, with capped exponential backoff between
// attempts. Server-side answers (rejected puts, store errors, missing
// blobs) pass through untouched: a new connection cannot change them.
//
// Blob operations are idempotent by construction (puts are
// content-addressed, gets are reads), so retrying a request whose fate
// is unknown — the connection died after the frame was sent — is always
// safe.

// DefaultRedialAttempts is how many fresh connections one operation may
// consume before its error is surfaced.
const DefaultRedialAttempts = 3

// The sleep before redial k starts at redialBackoff and doubles each
// time, capped at redialBackoffCap.
const (
	redialBackoff    = 50 * time.Millisecond
	redialBackoffCap = time.Second
)

// RedialBlobChannel is a BlobChannel that survives connection drops by
// redialing. Safe for concurrent use; concurrent operations share one
// underlying channel (and its pipelining) and one of them performs the
// redial while the others wait for it.
type RedialBlobChannel struct {
	dial func() (BlobChannel, error)
	clk  clock.Clock // paces the backoff

	mu     sync.Mutex
	ch     BlobChannel // nil until first use or after a discard
	gen    int         // bumped on every successful redial
	closed bool
}

var _ BlobChannel = (*RedialBlobChannel)(nil)

// NewRedialBlobChannel wraps a dial function (typically a closure over
// DialTCPBlob) in a redial-on-failure channel. The first connection is
// dialed lazily on first use.
func NewRedialBlobChannel(dial func() (BlobChannel, error)) *RedialBlobChannel {
	return &RedialBlobChannel{dial: dial, clk: clock.Real}
}

// current returns the live channel and its generation, dialing if none
// is open. gen lets a failing caller tell "the channel I used is still
// installed" from "someone already replaced it" — in the latter case it
// retries on the replacement without burning a redial of its own.
func (r *RedialBlobChannel) current() (BlobChannel, int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, 0, ErrClosed
	}
	if r.ch == nil {
		ch, err := r.dial()
		if err != nil {
			return nil, 0, fmt.Errorf("%w: redial: %v", ErrBlobChannelBroken, err)
		}
		r.ch = ch
		r.gen++
	}
	return r.ch, r.gen, nil
}

// discard drops the channel of generation gen (if still installed) so
// the next current() dials fresh. Returns true if this caller did the
// discarding (and thus should pay the backoff sleep).
func (r *RedialBlobChannel) discard(gen int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gen != gen || r.ch == nil {
		return false // someone else already replaced it
	}
	_ = r.ch.Close()
	r.ch = nil
	return true
}

// retryable reports whether err indicates a dead connection rather than
// a server-side answer.
func retryable(err error) bool {
	return errors.Is(err, ErrBlobChannelBroken) || errors.Is(err, ErrClosed)
}

// do runs op against the current channel, redialing on connection death
// until ctx is done. Each redial cycle (discard + backoff + fresh dial
// on the next current()) is recorded as a blob.redial span of ctx's
// trace, so a trace that survived a connection drop shows where the
// time went.
func (r *RedialBlobChannel) do(ctx context.Context, op func(ch BlobChannel) error) error {
	backoff := redialBackoff
	var lastErr error
	for attempt := 0; attempt <= DefaultRedialAttempts; attempt++ {
		ch, gen, err := r.current()
		if err != nil {
			if !retryable(err) {
				return err
			}
			lastErr = err
		} else {
			err = op(ch)
			if err == nil || !retryable(err) {
				return err
			}
			lastErr = err
			r.discard(gen)
		}
		if ctx.Err() != nil {
			return fmt.Errorf("transport: blob channel: %w (last error: %w)", ctx.Err(), lastErr)
		}
		if attempt < DefaultRedialAttempts {
			redialStart := time.Now()
			r.clk.Sleep(backoff)
			trace.Event(ctx, spanRedial, redialStart)
			backoff = min(2*backoff, redialBackoffCap)
		}
	}
	return fmt.Errorf("transport: blob channel still failing after %d redials: %w", DefaultRedialAttempts, lastErr)
}

// PutBlob implements BlobChannel.
func (r *RedialBlobChannel) PutBlob(ctx context.Context, hash, data []byte) error {
	return r.do(ctx, func(ch BlobChannel) error { return ch.PutBlob(ctx, hash, data) })
}

// GetBlob implements BlobChannel.
func (r *RedialBlobChannel) GetBlob(ctx context.Context, hash []byte) ([]byte, error) {
	var out []byte
	err := r.do(ctx, func(ch BlobChannel) error {
		var err error
		out, err = ch.GetBlob(ctx, hash)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Close implements BlobChannel: it closes the current connection and
// rejects further operations.
func (r *RedialBlobChannel) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	if r.ch != nil {
		err := r.ch.Close()
		r.ch = nil
		return err
	}
	return nil
}
