package faust

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"faust/internal/crypto"
	"faust/internal/faustproto"
	"faust/internal/offline"
	"faust/internal/shard"
	"faust/internal/store"
	"faust/internal/transport"
	"faust/internal/ustor"
)

// TestTCPEndToEndUSTOR runs the USTOR protocol over a real TCP loopback
// server, exactly as cmd/faust-server and cmd/faust-client deploy it.
func TestTCPEndToEndUSTOR(t *testing.T) {
	const n = 3
	ring, signers := crypto.NewTestKeyring(n, 31)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.ServeTCP(ln, ustor.NewServer(n))
	t.Cleanup(srv.Stop)

	clients := make([]*ustor.Client, n)
	for i := 0; i < n; i++ {
		link, err := transport.DialTCP(ln.Addr().String(), i)
		if err != nil {
			t.Fatalf("client %d dial: %v", i, err)
		}
		clients[i] = ustor.NewClient(i, ring, signers[i], link)
	}

	for round := 0; round < 5; round++ {
		for i, c := range clients {
			if err := c.Write([]byte(fmt.Sprintf("tcp-%d-%d", i, round))); err != nil {
				t.Fatalf("client %d write: %v", i, err)
			}
		}
		for i, c := range clients {
			v, err := c.Read((i + 1) % n)
			if err != nil {
				t.Fatalf("client %d read: %v", i, err)
			}
			want := fmt.Sprintf("tcp-%d-%d", (i+1)%n, round)
			if string(v) != want {
				t.Fatalf("client %d read %q, want %q", i, v, want)
			}
		}
	}
	for i, c := range clients {
		if failed, reason := c.Failed(); failed {
			t.Fatalf("client %d failed over TCP: %v", i, reason)
		}
	}
}

// TestTCPEndToEndFAUSTStability runs the full FAUST stack over TCP: the
// storage server on one listener and the offline channel as a TCP mesh —
// the deployment of cmd/faust-client with -listen/-peers. A write must
// become stable across the network.
func TestTCPEndToEndFAUSTStability(t *testing.T) {
	const n = 2
	ring, signers := crypto.NewTestKeyring(n, 32)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.ServeTCP(ln, ustor.NewServer(n))
	t.Cleanup(srv.Stop)

	// Reserve mesh addresses.
	meshAddrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		meshAddrs[i] = l.Addr().String()
		listeners[i] = l
	}
	peers := map[int]string{0: meshAddrs[0], 1: meshAddrs[1]}
	for _, l := range listeners {
		_ = l.Close()
	}

	cfg := faustproto.Config{
		ProbeTimeout: 60 * time.Millisecond,
		PollInterval: 15 * time.Millisecond,
	}
	clients := make([]*faustproto.Client, n)
	for i := 0; i < n; i++ {
		link, err := transport.DialTCP(ln.Addr().String(), i)
		if err != nil {
			t.Fatal(err)
		}
		mesh, err := offline.ListenTCP(i, meshAddrs[i], peers, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = faustproto.NewClient(i, ring, signers[i], link, mesh,
			faustproto.WithConfig(cfg))
		clients[i].Start()
	}
	t.Cleanup(func() {
		for _, c := range clients {
			c.Stop()
		}
	})

	ts, err := clients[0].Write([]byte("over-the-wire"))
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	v, _, err := clients[1].Read(0)
	if err != nil || string(v) != "over-the-wire" {
		t.Fatalf("read = %q, %v", v, err)
	}
	if err := clients[0].WaitStable(ts, 15*time.Second); err != nil {
		t.Fatalf("stability over TCP: %v", err)
	}
	for i, c := range clients {
		if failed, reason := c.Failed(); failed {
			t.Fatalf("client %d false positive over TCP: %v", i, reason)
		}
	}
}

// TestTCPMultiShardIsolation deploys a multi-tenant server: three shards
// (the default one plus two persistent tenants) behind one listener. It
// proves (1) shards are fully isolated — the same client identity writes
// different values into different shards and reads them back unmixed,
// (2) each persistent shard keeps its own data directory and recovers its
// own state across a restart, and (3) DialTCP, which names no shard, and
// DialTCPShard naming "default" reach the same default shard.
func TestTCPMultiShardIsolation(t *testing.T) {
	const n = 2
	base := t.TempDir()
	ring, signers := crypto.NewTestKeyring(n, 34)

	newRouter := func() *shard.Router {
		r, err := shard.NewRouter([]shard.Spec{
			{Name: transport.DefaultShard, N: n},
			{Name: "alpha", N: n, Persist: true},
			{Name: "beta", N: n, Persist: true},
		}, shard.Options{BaseDir: base, StoreOptions: store.Options{SnapshotEvery: 8}})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	serve := func(r *shard.Router) (*transport.TCPServer, string) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return transport.ServeTCPSharded(ln, r), ln.Addr().String()
	}
	dialShard := func(addr, name string, id int) transport.Link {
		link, err := transport.DialTCPShard(addr, name, id)
		if err != nil {
			t.Fatalf("dial shard %q id %d: %v", name, id, err)
		}
		return link
	}

	router := newRouter()
	srv, addr := serve(router)

	// The same identity (0) lives in three shards at once; each instance
	// is an independent protocol participant.
	alpha0 := ustor.NewClient(0, ring, signers[0], dialShard(addr, "alpha", 0))
	beta0 := ustor.NewClient(0, ring, signers[0], dialShard(addr, "beta", 0))
	defLink, err := transport.DialTCP(addr, 0) // no shard named -> default shard
	if err != nil {
		t.Fatal(err)
	}
	def0 := ustor.NewClient(0, ring, signers[0], defLink)

	if err := alpha0.Write([]byte("alpha-secret")); err != nil {
		t.Fatalf("alpha write: %v", err)
	}
	if err := beta0.Write([]byte("beta-value")); err != nil {
		t.Fatalf("beta write: %v", err)
	}
	if err := def0.Write([]byte("default-value")); err != nil {
		t.Fatalf("default-shard write: %v", err)
	}

	// Cross-shard isolation: register 0 of each shard holds that shard's
	// value, observed by the other group member.
	alpha1 := ustor.NewClient(1, ring, signers[1], dialShard(addr, "alpha", 1))
	beta1 := ustor.NewClient(1, ring, signers[1], dialShard(addr, "beta", 1))
	if v, err := alpha1.Read(0); err != nil || string(v) != "alpha-secret" {
		t.Fatalf("alpha read = %q, %v; want alpha-secret", v, err)
	}
	if v, err := beta1.Read(0); err != nil || string(v) != "beta-value" {
		t.Fatalf("beta read = %q, %v; want beta-value", v, err)
	}

	// The default shard by either dialer: a client naming "default"
	// shares state with the DialTCP client.
	def1 := ustor.NewClient(1, ring, signers[1], dialShard(addr, transport.DefaultShard, 1))
	if v, err := def1.Read(0); err != nil || string(v) != "default-value" {
		t.Fatalf("default-shard read = %q, %v; want default-value", v, err)
	}

	// Per-shard persistence layout: the two tenants have their own
	// directories; the non-persistent default shard has none.
	for _, name := range []string{"alpha", "beta"} {
		dir := filepath.Join(base, "shards", name)
		if st, err := os.Stat(dir); err != nil || !st.IsDir() {
			t.Fatalf("missing per-shard dir %s: %v", dir, err)
		}
	}
	if _, err := os.Stat(filepath.Join(base, "shards", transport.DefaultShard)); !os.IsNotExist(err) {
		t.Fatalf("in-memory default shard grew a data dir (err=%v)", err)
	}

	// Restart the whole server process: stop transport, close the router
	// (final snapshots), bring up a fresh router on the same directories.
	srv.Stop()
	if err := router.Close(); err != nil {
		t.Fatal(err)
	}
	router2 := newRouter()
	srv2, addr2 := serve(router2)
	defer func() {
		srv2.Stop()
		_ = router2.Close()
	}()

	// The readers resume with their protocol state (Rebind) and must see
	// exactly their own shard's pre-restart value — recovery restored each
	// tenant from its own directory.
	alpha1.Rebind(dialShard(addr2, "alpha", 1))
	beta1.Rebind(dialShard(addr2, "beta", 1))
	if v, err := alpha1.Read(0); err != nil || string(v) != "alpha-secret" {
		t.Fatalf("alpha read after restart = %q, %v; want alpha-secret", v, err)
	}
	if v, err := beta1.Read(0); err != nil || string(v) != "beta-value" {
		t.Fatalf("beta read after restart = %q, %v; want beta-value", v, err)
	}

	for name, c := range map[string]*ustor.Client{
		"alpha0": alpha0, "alpha1": alpha1, "beta0": beta0, "beta1": beta1, "def0": def0, "def1": def1,
	} {
		if failed, reason := c.Failed(); failed {
			t.Fatalf("client %s reported failure: %v", name, reason)
		}
	}
}

// TestTCPRejectedHandshakeNoInstantiation: a handshake refused for an
// out-of-range id must not leave a lazily created shard behind (goroutine,
// WAL directory, dispatcher) — the preflight runs before instantiation.
func TestTCPRejectedHandshakeNoInstantiation(t *testing.T) {
	router, err := shard.NewRouter(nil, shard.Options{Default: &shard.Spec{N: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.ServeTCPSharded(ln, router)
	t.Cleanup(srv.Stop)

	if _, err := transport.DialTCPShard(ln.Addr().String(), "fresh", 5); err == nil {
		t.Fatal("out-of-range id accepted")
	}
	if got := router.OpenShards(); len(got) != 0 {
		t.Fatalf("rejected handshake instantiated shards: %+v", got)
	}
	link, err := transport.DialTCPShard(ln.Addr().String(), "fresh", 1)
	if err != nil {
		t.Fatalf("valid handshake after rejection: %v", err)
	}
	defer link.Close()
	if got := router.OpenShards(); len(got) != 1 || got[0].Name != "fresh" {
		t.Fatalf("OpenShards = %+v, want [fresh]", got)
	}
}
