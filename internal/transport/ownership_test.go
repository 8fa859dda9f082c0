package transport

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"sync"
	"testing"

	"faust/internal/crypto"
	"faust/internal/wire"
)

// Buffer-reuse detectors. wire.Decode aliases the buffer it is handed, so
// every read loop must give each frame a buffer nobody touches again.
// These tests retain every decoded message while the stream keeps
// flowing through the same connection — and the same bufio.Reader — and
// compare all of them with what was sent only at the very end: a caller
// that recycles a buffer under an aliased message fails them.

// distinctSubmit and distinctReply derive message i's every byte from i.
func distinctSubmit(i int) *wire.Submit {
	rng := rand.New(rand.NewSource(int64(i)))
	blob := func(n int) []byte { b := make([]byte, n); rng.Read(b); return b }
	ver := wire.ZeroSignedVersion(4).Ver
	for k := range ver.V {
		ver.V[k] = int64(i + k)
		ver.M[k] = blob(32)
	}
	return &wire.Submit{
		T:         int64(i),
		Inv:       wire.Invocation{Client: 0, Op: wire.OpWrite, Reg: 0, SubmitSig: blob(64)},
		Value:     blob(1 + i%300),
		DataSig:   blob(64),
		Piggyback: &wire.Commit{Ver: ver, CommitSig: blob(64), ProofSig: blob(64)},
	}
}

func distinctReply(i int) *wire.Reply {
	rng := rand.New(rand.NewSource(int64(-i - 1)))
	blob := func(n int) []byte { b := make([]byte, n); rng.Read(b); return b }
	sv := wire.ZeroSignedVersion(4)
	sv.Committer = 1
	for k := range sv.Ver.V {
		sv.Ver.V[k] = int64(i + k)
		sv.Ver.M[k] = blob(32)
	}
	sv.Sig = blob(64)
	return &wire.Reply{IsRead: true, C: 1, CVer: sv, JVer: sv,
		Mem: wire.MemEntry{T: int64(i), Value: blob(1 + i%200), DataSig: blob(64)},
		L:   []wire.Invocation{{Client: 1, Op: wire.OpRead, Reg: 0, SubmitSig: blob(64)}},
		P:   [][]byte{blob(64), nil, blob(64), blob(64)}}
}

// retainCore keeps every SUBMIT the transport hands it and answers the
// i-th with distinctReply(i).
type retainCore struct {
	mu   sync.Mutex
	seen []*wire.Submit
}

func (c *retainCore) HandleSubmit(_ context.Context, _ int, s *wire.Submit) *wire.Reply {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seen = append(c.seen, s)
	return distinctReply(len(c.seen) - 1)
}

func (c *retainCore) HandleCommit(context.Context, int, *wire.Commit) {}

func TestTCPRetainedMessagesOutliveTheStream(t *testing.T) {
	const frames = 1200
	core := &retainCore{}
	_, addr := startTCP(t, core)
	link, err := DialTCPShard(addr, "", 0)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer link.Close()

	// Pipelined: the sender never waits, so many frames share one read
	// of the connection's buffered reader on both sides.
	sendErr := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			if err := link.Send(distinctSubmit(i)); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	replies := make([]wire.Message, frames)
	for i := range replies {
		if replies[i], err = link.Recv(); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
	}
	if err := <-sendErr; err != nil {
		t.Fatalf("send: %v", err)
	}

	core.mu.Lock()
	defer core.mu.Unlock()
	for i := 0; i < frames; i++ {
		if !bytes.Equal(wire.Encode(core.seen[i]), wire.Encode(distinctSubmit(i))) {
			t.Fatalf("SUBMIT %d retained by the server changed after later frames arrived", i)
		}
		if !bytes.Equal(wire.Encode(replies[i]), wire.Encode(distinctReply(i))) {
			t.Fatalf("REPLY %d retained by the client changed after later frames arrived", i)
		}
	}
}

func TestTCPBlobRetainedDataOutlivesTheStream(t *testing.T) {
	const blobs = 300
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCPSharded(ln, &fakeResolver{core: &echoCore{}, blobs: map[string]BlobStore{"s": NewMemBlobs()}})
	defer srv.Stop()
	ch, err := DialTCPBlob(ln.Addr().String(), "s")
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()

	blobFor := func(i int) []byte {
		b := make([]byte, 100+i*7%900)
		rand.New(rand.NewSource(int64(i))).Read(b)
		return b
	}
	ctx := context.Background()
	for i := 0; i < blobs; i++ {
		if err := ch.PutBlob(ctx, crypto.Hash(blobFor(i)), blobFor(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// Fetch concurrently so responses pipeline through the one reader.
	got := make([][]byte, blobs)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = ch.GetBlob(ctx, crypto.Hash(blobFor(i)))
		}(i)
	}
	wg.Wait()
	for i := range got {
		if !bytes.Equal(got[i], blobFor(i)) {
			t.Fatalf("blob %d retained by the client changed after later frames arrived", i)
		}
	}
}

// TestFIFORingKeepsOrder drives the one queue through growth while
// wrapped and through partial drains, against a counter model.
func TestFIFORingKeepsOrder(t *testing.T) {
	q := newFIFO[int]()
	next, want := 0, 0
	push := func(k int) {
		for ; k > 0; k-- {
			if !q.push(next) {
				t.Fatal("push on an open queue failed")
			}
			next++
		}
	}
	expect := func(got []int) {
		for _, v := range got {
			if v != want {
				t.Fatalf("popped %d, want %d", v, want)
			}
			want++
		}
	}
	push(6)
	batch, _ := q.popBatch(4, nil) // head now mid-ring
	expect(batch)
	push(6) // wraps the 8-slot ring exactly full
	push(5) // grows while wrapped
	if v, ok := q.pop(); ok {
		expect([]int{v})
	}
	if !q.pushAll([]int{next, next + 1, next + 2}) {
		t.Fatal("pushAll on an open queue failed")
	}
	next += 3
	batch, _ = q.popBatch(5, batch[:0]) // capped drain across the wrap point
	expect(batch)
	q.close()
	if q.push(-1) || q.pushAll([]int{-1}) {
		t.Fatal("push succeeded on a closed queue")
	}
	batch, ok := q.popBatch(0, batch[:0]) // close still drains what was queued
	expect(batch)
	if !ok || want != next {
		t.Fatalf("drained up to %d of %d items after close (ok=%v)", want, next, ok)
	}
	if _, ok := q.popBatch(0, nil); ok {
		t.Fatal("popBatch on a closed, empty queue reported items")
	}
	if _, ok := q.pop(); ok {
		t.Fatal("pop on a closed, empty queue reported an item")
	}
}
