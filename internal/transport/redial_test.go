package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"sync"
	"testing"
	"time"

	"faust/internal/crypto"
)

// flakyBlobChannel is a BlobChannel over a shared MemBlobs that becomes
// sticky-poisoned (like tcpBlobChannel) after `failAfter` operations.
type flakyBlobChannel struct {
	mu        sync.Mutex
	store     *MemBlobs
	failAfter int // -1 = never
	ops       int
	dead      bool
}

func (c *flakyBlobChannel) gate() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return fmt.Errorf("%w: connection reset", ErrBlobChannelBroken)
	}
	if c.failAfter >= 0 && c.ops >= c.failAfter {
		c.dead = true
		return fmt.Errorf("%w: connection reset", ErrBlobChannelBroken)
	}
	c.ops++
	return nil
}

func (c *flakyBlobChannel) PutBlob(_ context.Context, hash, data []byte) error {
	if err := c.gate(); err != nil {
		return err
	}
	return c.store.PutBlob(hash, data)
}

func (c *flakyBlobChannel) GetBlob(_ context.Context, hash []byte) ([]byte, error) {
	if err := c.gate(); err != nil {
		return nil, err
	}
	return c.store.GetBlob(hash)
}

func (c *flakyBlobChannel) Close() error { return nil }

func TestRedialSurvivesConnectionDrops(t *testing.T) {
	store := NewMemBlobs()
	dials := 0
	r := NewRedialBlobChannel(func() (BlobChannel, error) {
		dials++
		// Every connection dies after 3 operations.
		return &flakyBlobChannel{store: store, failAfter: 3}, nil
	})
	r.sleep = func(time.Duration) {}
	defer r.Close()

	// 20 operations across connections that die every 3 ops: the redial
	// wrapper must keep the session alive throughout.
	var hashes [][]byte
	for i := 0; i < 10; i++ {
		data := []byte(fmt.Sprintf("blob %d", i))
		hash := crypto.Hash(data)
		if err := r.PutBlob(context.Background(), hash, data); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		hashes = append(hashes, hash)
	}
	for i, hash := range hashes {
		got, err := r.GetBlob(context.Background(), hash)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if !bytes.Equal(got, []byte(fmt.Sprintf("blob %d", i))) {
			t.Fatalf("get %d returned wrong data", i)
		}
	}
	if dials < 2 {
		t.Fatalf("only %d dials — the flaky channel never forced a redial", dials)
	}
}

func TestRedialBoundedAttempts(t *testing.T) {
	dials := 0
	r := NewRedialBlobChannel(func() (BlobChannel, error) {
		dials++
		// Dead on arrival, every time.
		return &flakyBlobChannel{store: NewMemBlobs(), failAfter: 0}, nil
	})
	r.sleep = func(time.Duration) {}
	defer r.Close()

	err := r.PutBlob(context.Background(), crypto.Hash([]byte("x")), []byte("x"))
	if err == nil {
		t.Fatal("put on a permanently dead channel succeeded")
	}
	if !errors.Is(err, ErrBlobChannelBroken) {
		t.Fatalf("final error %v does not wrap ErrBlobChannelBroken", err)
	}
	if dials != 1+DefaultRedialAttempts {
		t.Fatalf("dials = %d, want %d (1 initial + %d redials)", dials, 1+DefaultRedialAttempts, DefaultRedialAttempts)
	}
}

func TestRedialPassesServerAnswersThrough(t *testing.T) {
	dials := 0
	r := NewRedialBlobChannel(func() (BlobChannel, error) {
		dials++
		return &flakyBlobChannel{store: NewMemBlobs(), failAfter: -1}, nil
	})
	r.sleep = func(time.Duration) {}
	defer r.Close()

	// A missing blob is a server-side answer: no redial may happen.
	if _, err := r.GetBlob(context.Background(), crypto.Hash([]byte("absent"))); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing blob: %v, want fs.ErrNotExist", err)
	}
	if dials != 1 {
		t.Fatalf("dials = %d after a not-found — redial fired on a server answer", dials)
	}
}

func TestRedialFailedDialRetries(t *testing.T) {
	store := NewMemBlobs()
	dials := 0
	r := NewRedialBlobChannel(func() (BlobChannel, error) {
		dials++
		if dials < 3 {
			return nil, errors.New("connection refused")
		}
		return &flakyBlobChannel{store: store, failAfter: -1}, nil
	})
	r.sleep = func(time.Duration) {}
	defer r.Close()

	data := []byte("eventually")
	if err := r.PutBlob(context.Background(), crypto.Hash(data), data); err != nil {
		t.Fatalf("put after two refused dials: %v", err)
	}
}

func TestRedialClosed(t *testing.T) {
	r := NewRedialBlobChannel(func() (BlobChannel, error) {
		return &flakyBlobChannel{store: NewMemBlobs(), failAfter: -1}, nil
	})
	r.sleep = func(time.Duration) {}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.PutBlob(context.Background(), crypto.Hash([]byte("x")), []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("put after close: %v, want ErrClosed", err)
	}
}
