package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"strings"
	"testing"

	"faust/internal/crypto"
)

// fakeResolver serves one shared core under every name and, for known
// shard names, a blob store. It stands in for shard.Router (which lives
// above transport).
type fakeResolver struct {
	core  ServerCore
	blobs map[string]BlobStore
}

func (f *fakeResolver) ResolveShard(name string, _ int) (Shard, error) {
	return Shard{Core: f.core, Blobs: f.blobs[name]}, nil
}

// TestMemBlobChannel exercises the in-memory bulk channel: put/get round
// trip, not-found, and the metrics accounting.
func TestMemBlobChannel(t *testing.T) {
	bs := NewMemBlobs()
	nw := NewNetwork(1, &echoCore{}, WithMetrics(), WithBlobStore(bs))
	defer nw.Stop()

	ch, err := nw.BlobChannel()
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("x"), 1000)
	hash := crypto.Hash(data)
	if err := ch.PutBlob(context.Background(), hash, data); err != nil {
		t.Fatalf("put: %v", err)
	}
	got, err := ch.GetBlob(context.Background(), hash)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("blob round trip corrupted the data")
	}
	if _, err := ch.GetBlob(context.Background(), crypto.Hash([]byte("absent"))); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing blob error = %v, want fs.ErrNotExist", err)
	}
	st := nw.Stats()
	if st.ClientToServerMsgs != 1 || st.ServerToClientMsgs != 1 {
		t.Fatalf("blob metrics = %+v, want one message each way", st)
	}
	if err := ch.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ch.PutBlob(context.Background(), hash, data); !errors.Is(err, ErrClosed) {
		t.Fatalf("put after close = %v, want ErrClosed", err)
	}

	// A network without a blob store refuses to open channels.
	nw2 := NewNetwork(1, &echoCore{})
	defer nw2.Stop()
	if _, err := nw2.BlobChannel(); !errors.Is(err, ErrNoBlobStore) {
		t.Fatalf("channel without store = %v, want ErrNoBlobStore", err)
	}
}

// TestMemBlobsUnverified documents the BlobStore contract: stores accept
// whatever bytes the hash claims to address (the server verifies
// nothing); readers must check. Tamper tests depend on this.
func TestMemBlobsUnverified(t *testing.T) {
	bs := NewMemBlobs()
	hash := crypto.Hash([]byte("real content"))
	if err := bs.PutBlob(hash, []byte("something else entirely")); err != nil {
		t.Fatalf("unverified put rejected: %v", err)
	}
	got, err := bs.GetBlob(hash)
	if err != nil || string(got) != "something else entirely" {
		t.Fatalf("got %q, %v", got, err)
	}
}

// TestTCPBlobChannel runs the bulk channel over a real TCP loopback
// server next to protocol connections on the same listener.
func TestTCPBlobChannel(t *testing.T) {
	resolver := &fakeResolver{
		core:  &echoCore{},
		blobs: map[string]BlobStore{DefaultShard: NewMemBlobs()},
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCPSharded(ln, resolver)
	defer srv.Stop()

	ch, err := DialTCPBlob(ln.Addr().String(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()

	// Several sizes, including empty and larger-than-typical-chunk.
	for _, size := range []int{0, 1, 4096, 1 << 20} {
		data := bytes.Repeat([]byte{byte(size)}, size)
		hash := crypto.Hash(data)
		if err := ch.PutBlob(context.Background(), hash, data); err != nil {
			t.Fatalf("put %d bytes: %v", size, err)
		}
		got, err := ch.GetBlob(context.Background(), hash)
		if err != nil {
			t.Fatalf("get %d bytes: %v", size, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%d-byte blob corrupted in transit", size)
		}
	}
	if _, err := ch.GetBlob(context.Background(), crypto.Hash([]byte("never-stored"))); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing blob error = %v, want fs.ErrNotExist", err)
	}

	// Oversized puts are refused client-side before any bytes move.
	big := make([]byte, MaxBlobSize+1)
	if err := ch.PutBlob(context.Background(), crypto.Hash([]byte("big")), big); err == nil {
		t.Fatal("oversized blob accepted")
	}
}

// TestTCPBlobChannelRejected: shards without a blob store reject the
// blob handshake with the reason in the ack.
func TestTCPBlobChannelRejected(t *testing.T) {
	resolver := &fakeResolver{
		core:  &echoCore{},
		blobs: map[string]BlobStore{DefaultShard: NewMemBlobs()},
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCPSharded(ln, resolver)
	defer srv.Stop()
	if _, err := DialTCPBlob(ln.Addr().String(), "no-such-shard"); err == nil || !strings.Contains(err.Error(), ErrNoBlobStore.Error()) {
		t.Fatalf("blob channel to a shard without a blob store = %v, want refused with the reason", err)
	}

	// A server whose shards have no blob stores refuses every blob dial.
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv2 := ServeTCP(ln2, &echoCore{})
	defer srv2.Stop()
	if _, err := DialTCPBlob(ln2.Addr().String(), ""); err == nil {
		t.Fatal("blob channel accepted by a server without blob stores")
	}
}

// TestTCPBlobChannelPipelined drives one blob connection from many
// goroutines at once: requests are pipelined (IDs on the wire) and every
// response must reach the caller that issued it, with the right bytes.
func TestTCPBlobChannelPipelined(t *testing.T) {
	resolver := &fakeResolver{
		core:  &echoCore{},
		blobs: map[string]BlobStore{DefaultShard: NewMemBlobs()},
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCPSharded(ln, resolver)
	defer srv.Stop()
	ch, err := DialTCPBlob(ln.Addr().String(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()

	const workers, perWorker = 8, 40
	blob := func(w, i int) []byte {
		return []byte(fmt.Sprintf("worker-%d-blob-%d-%s", w, i, bytes.Repeat([]byte("x"), i)))
	}
	// Upload everything concurrently over the one connection.
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < perWorker; i++ {
				data := blob(w, i)
				if err := ch.PutBlob(context.Background(), crypto.Hash(data), data); err != nil {
					errs <- fmt.Errorf("put w%d i%d: %w", w, i, err)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// Fetch everything back concurrently, interleaved with misses, and
	// check each caller got exactly its own bytes.
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < perWorker; i++ {
				data := blob(w, i)
				got, err := ch.GetBlob(context.Background(), crypto.Hash(data))
				if err != nil {
					errs <- fmt.Errorf("get w%d i%d: %w", w, i, err)
					return
				}
				if !bytes.Equal(got, data) {
					errs <- fmt.Errorf("w%d i%d: response routed to the wrong request", w, i)
					return
				}
				if _, err := ch.GetBlob(context.Background(), crypto.Hash(blob(w, i+1000))); !errors.Is(err, fs.ErrNotExist) {
					errs <- fmt.Errorf("w%d i%d miss = %v, want fs.ErrNotExist", w, i, err)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestTCPBlobChannelFailureReleasesInFlight: when the connection dies
// under pipelined requests, every blocked caller is released with an
// error instead of hanging.
func TestTCPBlobChannelFailureReleasesInFlight(t *testing.T) {
	resolver := &fakeResolver{
		core:  &echoCore{},
		blobs: map[string]BlobStore{DefaultShard: NewMemBlobs()},
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCPSharded(ln, resolver)
	ch, err := DialTCPBlob(ln.Addr().String(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	data := []byte("seed")
	if err := ch.PutBlob(context.Background(), crypto.Hash(data), data); err != nil {
		t.Fatal(err)
	}

	const inflight = 16
	done := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func() {
			_, err := ch.GetBlob(context.Background(), crypto.Hash(data))
			done <- err
		}()
	}
	srv.Stop() // kills the blob connection mid-stream
	for i := 0; i < inflight; i++ {
		<-done // nil (served before the close) or an error; hanging fails the test by timeout
	}
	// The channel is poisoned: every later request fails fast.
	if err := ch.PutBlob(context.Background(), crypto.Hash(data), data); err == nil {
		t.Fatal("put succeeded on a poisoned channel")
	}
}

// TestTCPBlobChannelStop: Stop closes live blob connections so the
// server shuts down promptly and later requests fail.
func TestTCPBlobChannelStop(t *testing.T) {
	resolver := &fakeResolver{
		core:  &echoCore{},
		blobs: map[string]BlobStore{DefaultShard: NewMemBlobs()},
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCPSharded(ln, resolver)
	ch, err := DialTCPBlob(ln.Addr().String(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	data := []byte("alive")
	if err := ch.PutBlob(context.Background(), crypto.Hash(data), data); err != nil {
		t.Fatal(err)
	}
	srv.Stop() // must not hang on the open blob connection
	if err := ch.PutBlob(context.Background(), crypto.Hash(data), data); err == nil {
		t.Fatal("put succeeded after server stop")
	}
}
