package faust

import (
	"bytes"
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"faust/internal/blobfleet"
	"faust/internal/clock"
	"faust/internal/crypto"
	"faust/internal/kv"
	"faust/internal/obs/trace"
	"faust/internal/shard"
	"faust/internal/store"
	"faust/internal/transport"
	"faust/internal/ustor"
)

// enableTracing arms the default collector for one test: every trace is
// head-sampled (kept), tail sampling off.
func enableTracing(t *testing.T) {
	t.Helper()
	trace.SetEnabled(true)
	trace.Configure(1, 0)
	t.Cleanup(func() {
		trace.SetEnabled(false)
		trace.Configure(0, 0)
		trace.Default().Reset()
	})
}

// spanNames collects the set of span names in a trace, treating any
// "fleet.put:<backend>" span as the generic marker "fleet.put:*".
func spanNames(tr *trace.Trace) map[string]bool {
	names := make(map[string]bool, len(tr.Spans))
	for _, s := range tr.Spans {
		names[s.Name] = true
		if strings.HasPrefix(s.Name, "fleet.put:") {
			names["fleet.put:*"] = true
		}
	}
	return names
}

// assertTrace checks that the trace contains every wanted span name and
// that every span's parent link resolves to another span of the SAME
// trace — i.e. the wire propagation joined remote work into the
// client's trace instead of minting fresh roots.
func assertTrace(t *testing.T, tr *trace.Trace, want []string) {
	t.Helper()
	if tr == nil {
		t.Fatal("no trace retained")
	}
	names := spanNames(tr)
	for _, w := range want {
		if !names[w] {
			t.Errorf("trace %s: span %q missing (have %v)", tr.ID, w, keys(names))
		}
	}
	ids := make(map[trace.SpanID]bool, len(tr.Spans))
	for _, s := range tr.Spans {
		ids[s.ID] = true
	}
	for _, s := range tr.Spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("trace %s: span %q has dangling parent %d", tr.ID, s.Name, s.Parent)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestTracePropagationMemoryTransport proves one trace follows a KV put
// end to end over the in-memory transport: client-side kv/sign/rpc/
// verify spans, the server dispatcher's remote-joined submit + queue
// wait, the USTOR apply, and — because the primary blob backend always
// fails — the blob fleet's per-backend attempts, retries and failover,
// all under a single trace ID minted at the client.
func TestTracePropagationMemoryTransport(t *testing.T) {
	enableTracing(t)
	const n = 2
	ring, signers := crypto.NewTestKeyring(n, 7)

	primary := blobfleet.NewFaultyBlobs("primary", transport.NewMemBlobs(),
		blobfleet.FaultConfig{Seed: 1, ErrRate: 1})
	fleet, err := blobfleet.New([]blobfleet.Backend{
		{Name: "primary", Store: primary},
		{Name: "mirror", Store: transport.NewMemBlobs()},
	}, blobfleet.Options{
		WriteReplicas: 2,
		RetryAttempts: 2,
		Clock:         clock.NewFake(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	nw := transport.NewNetwork(n, ustor.NewServer(n), transport.WithBlobStore(fleet))
	defer nw.Stop()
	client := ustor.NewClient(0, ring, signers[0], nw.ClientLink(0))
	bch, err := nw.BlobChannel()
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := kv.Open(client, bch, kv.WithChunkSize(1<<10))
	if err != nil {
		t.Fatal(err)
	}

	value := make([]byte, 4<<10) // several chunks through the fleet
	for i := range value {
		value[i] = byte(i)
	}
	if err := kvs.Put(context.Background(), "traced-key", value); err != nil {
		t.Fatal(err)
	}

	trace.Default().Sweep()
	tr := trace.Default().Last()
	assertTrace(t, tr, []string{
		"kv.put", "kv.chunk", "sign", "rpc", "verify", // client side
		"srv.submit", "queue", "apply", // dispatcher + core
		"srv.blob.put",               // blob channel (in-process: no wire hop, no blob.rpc)
		"fleet.put:*", "fleet.retry", // fleet attempts incl. backoff
	})
}

// TestTracePropagationTCPWithRedial runs the same proof over real TCP
// against a persistent shard (adding WAL append and batch-flush spans to the
// chain), then kills the client's blob connection between two puts: the
// second put's trace must record the blob.redial recovery and still
// join the server-side work under the client's trace ID.
func TestTracePropagationTCPWithRedial(t *testing.T) {
	enableTracing(t)
	const n = 2
	ring, signers := crypto.NewTestKeyring(n, 7)

	spec, err := blobfleet.ParseFleetSpec("mem,mem,w=2")
	if err != nil {
		t.Fatal(err)
	}
	router, err := shard.NewRouter([]shard.Spec{{Name: "t", N: n, Persist: true}}, shard.Options{
		BaseDir: t.TempDir(),
		FileOptions: store.FileOptions{
			Fsync: true, GroupCommit: true, FlushInterval: time.Millisecond,
		},
		BlobFleet:  spec,
		BlobFaults: &blobfleet.FaultPlan{Backend: 0, Config: blobfleet.FaultConfig{Seed: 1, ErrRate: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.ServeTCPSharded(ln, router)
	defer func() {
		srv.Stop()
		_ = router.Close()
	}()

	link, err := transport.DialTCPShard(ln.Addr().String(), "t", 0)
	if err != nil {
		t.Fatal(err)
	}
	client := ustor.NewClient(0, ring, signers[0], link)

	// The redial channel remembers its live connection so the test can
	// sever it and force a traced redial on the next operation.
	var mu sync.Mutex
	var live transport.BlobChannel
	rb := transport.NewRedialBlobChannel(func() (transport.BlobChannel, error) {
		ch, err := transport.DialTCPBlob(ln.Addr().String(), "t")
		if err != nil {
			return nil, err
		}
		mu.Lock()
		live = ch
		mu.Unlock()
		return ch, nil
	})
	defer rb.Close()

	kvs, err := kv.Open(client, rb, kv.WithChunkSize(1<<10))
	if err != nil {
		t.Fatal(err)
	}

	value := make([]byte, 4<<10)
	for i := range value {
		value[i] = byte(i * 3)
	}
	if err := kvs.Put(context.Background(), "first", value); err != nil {
		t.Fatal(err)
	}
	trace.Default().Sweep()
	first := trace.Default().Last()
	// The full chain, now with durability spans from the WAL-backed
	// shard; the always-failing primary adds retries and failover.
	assertTrace(t, first, []string{
		"kv.put", "sign", "rpc", "verify",
		"srv.submit", "queue", "apply", "wal.append", "batch.flush",
		"blob.rpc", "srv.blob.put",
		"fleet.put:*", "fleet.retry",
	})

	// Sever the blob connection; the next put must redial and record it.
	mu.Lock()
	if live == nil {
		mu.Unlock()
		t.Fatal("redial channel never dialed")
	}
	_ = live.Close()
	mu.Unlock()

	if err := kvs.Put(context.Background(), "second", value); err != nil {
		t.Fatal(err)
	}
	trace.Default().Sweep()
	second := trace.Default().Last()
	if second == nil || first == nil {
		t.Fatal("traces not retained")
	}
	if second.ID == first.ID {
		t.Fatalf("second put reused trace %s", first.ID)
	}
	assertTrace(t, second, []string{
		"kv.put", "srv.submit", "blob.rpc", "blob.redial", "srv.blob.put",
	})
	if !spanNames(second)["batch.flush"] {
		t.Fatalf("second trace lost the WAL chain: %v", keys(spanNames(second)))
	}

	// Sanity: the Perfetto export carries both traces.
	var buf bytes.Buffer
	if err := trace.Default().WriteTraceEvents(&buf); err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*trace.Trace{first, second} {
		if !strings.Contains(buf.String(), tr.ID.String()) {
			t.Fatalf("trace %s missing from trace_event export", tr.ID)
		}
	}
}
