package shard

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"faust/internal/crypto"
	"faust/internal/obs"
	"faust/internal/store"
	"faust/internal/transport"
	"faust/internal/ustor"
	"faust/internal/wire"
)

func TestValidName(t *testing.T) {
	for _, ok := range []string{"default", "a", "tenant-1", "A.b_c-9", "0x"} {
		if !ValidName(ok) {
			t.Errorf("ValidName(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", ".hidden", "-x", "a/b", "a b", "..", "a\x00b", strings.Repeat("x", 65)} {
		if ValidName(bad) {
			t.Errorf("ValidName(%q) = true, want false", bad)
		}
	}
}

// resolveCore resolves a shard without a client id and returns its core.
func resolveCore(r *Router, name string) (transport.ServerCore, error) {
	sh, err := r.ResolveShard(name, -1)
	return sh.Core, err
}

func TestRouterResolveDeclared(t *testing.T) {
	r, err := NewRouter([]Spec{{Name: "a", N: 2}, {Name: "b", N: 3}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	coreA, err := resolveCore(r, "a")
	if err != nil {
		t.Fatal(err)
	}
	coreA2, err := resolveCore(r, "a")
	if err != nil {
		t.Fatal(err)
	}
	if coreA != coreA2 {
		t.Fatal("ResolveShard not idempotent")
	}
	coreB, err := resolveCore(r, "b")
	if err != nil {
		t.Fatal(err)
	}
	if coreA == coreB {
		t.Fatal("distinct shards share a core")
	}
	if _, err := resolveCore(r, "nope"); err == nil {
		t.Fatal("unknown shard resolved without a default template")
	}
	// Isolation: a submit to shard a must not appear in shard b.
	coreA.HandleSubmit(context.Background(), 0, &wire.Submit{T: 1, Inv: wire.Invocation{Client: 0, Op: wire.OpWrite, Reg: 0}, Value: []byte("x")})
	type pender interface{ PendingOps() int }
	if got := coreA.(pender).PendingOps(); got != 1 {
		t.Fatalf("shard a pending = %d, want 1", got)
	}
	if got := coreB.(pender).PendingOps(); got != 0 {
		t.Fatalf("shard b pending = %d, want 0", got)
	}
}

func TestRouterLazyDefault(t *testing.T) {
	r, err := NewRouter(nil, Options{Default: &Spec{N: 4}})
	if err != nil {
		t.Fatal(err)
	}
	core, err := resolveCore(r, "on-demand")
	if err != nil {
		t.Fatal(err)
	}
	if n := core.(interface{ N() int }).N(); n != 4 {
		t.Fatalf("lazy shard n = %d, want 4", n)
	}
	if _, err := resolveCore(r, "bad/name"); err == nil {
		t.Fatal("invalid lazy shard name accepted")
	}
	infos := r.OpenShards()
	if len(infos) != 1 || infos[0].Name != "on-demand" || infos[0].Persistent {
		t.Fatalf("OpenShards = %+v", infos)
	}
}

func TestRouterValidation(t *testing.T) {
	if _, err := NewRouter([]Spec{{Name: "a", N: 0}}, Options{}); err == nil {
		t.Fatal("accepted n=0")
	}
	if _, err := NewRouter([]Spec{{Name: "a", N: 1}, {Name: "a", N: 2}}, Options{}); err == nil {
		t.Fatal("accepted duplicate names")
	}
	if _, err := NewRouter([]Spec{{Name: "../evil", N: 1}}, Options{}); err == nil {
		t.Fatal("accepted path-traversal name")
	}
	if _, err := NewRouter([]Spec{{Name: "a", N: 1, Persist: true}}, Options{}); err == nil {
		t.Fatal("accepted persistent shard without any directory")
	}
	if _, err := NewRouter(nil, Options{Default: &Spec{N: 2, Persist: true}}); err == nil {
		t.Fatal("accepted persistent default template without base dir")
	}
}

func TestRouterPersistencePerShardDirs(t *testing.T) {
	base := t.TempDir()
	open := func() *Router {
		r, err := NewRouter([]Spec{
			{Name: "alpha", N: 2, Persist: true},
			{Name: "beta", N: 2, Persist: true},
		}, Options{BaseDir: base, StoreOptions: store.Options{SnapshotEvery: 0}})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := open()
	coreA, err := resolveCore(r, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resolveCore(r, "beta"); err != nil {
		t.Fatal(err)
	}
	sub := &wire.Submit{T: 1, Inv: wire.Invocation{Client: 0, Op: wire.OpWrite, Reg: 0}, Value: []byte("persist-me")}
	if reply := coreA.HandleSubmit(context.Background(), 0, sub); reply == nil {
		t.Fatal("persistent shard refused a submit")
	}
	preClose := coreA.(*store.Persistent).ExportState()
	for _, name := range []string{"alpha", "beta"} {
		dir := filepath.Join(base, "shards", name)
		if st, err := os.Stat(dir); err != nil || !st.IsDir() {
			t.Fatalf("shard dir %s missing: %v", dir, err)
		}
		info, ok := r.Info(name)
		if !ok || !info.Persistent || info.Dir != dir {
			t.Fatalf("Info(%s) = %+v, %v", name, info, ok)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := resolveCore(r, "alpha"); err == nil {
		t.Fatal("closed router resolved a shard")
	}

	// Reopen: alpha must recover its submit, beta must stay empty.
	r2 := open()
	defer r2.Close()
	coreA2, err := resolveCore(r2, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	infoA, _ := r2.Info("alpha")
	if !infoA.RecoveredSnapshot {
		t.Fatalf("alpha did not recover from snapshot: %+v", infoA)
	}
	if got := coreA2.(*store.Persistent).ExportState(); string(got) != string(preClose) {
		t.Fatal("alpha state after recovery differs from pre-close state")
	}
	coreB2, err := resolveCore(r2, "beta")
	if err != nil {
		t.Fatal(err)
	}
	if string(coreB2.(*store.Persistent).ExportState()) == string(preClose) {
		t.Fatal("beta recovered alpha's state — shards share a backend")
	}
}

func TestRouterCustomDirOverride(t *testing.T) {
	dir := t.TempDir()
	r, err := NewRouter([]Spec{{Name: "legacy", N: 2, Persist: true, Dir: dir}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := resolveCore(r, "legacy"); err != nil {
		t.Fatal(err)
	}
	info, _ := r.Info("legacy")
	if info.Dir != dir {
		t.Fatalf("Dir = %q, want %q", info.Dir, dir)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no backend files in override dir: %v", err)
	}
}

func TestRouterImplementsResolver(t *testing.T) {
	var _ transport.ShardResolver = (*Router)(nil)
}

// TestResolveShardRefusesBeforeInstantiating: names and client ids the
// spec refuses are refused before anything is instantiated — otherwise
// rejected handshakes could grow state without bound.
func TestResolveShardRefusesBeforeInstantiating(t *testing.T) {
	r, err := NewRouter([]Spec{{Name: "a", N: 2}}, Options{Default: &Spec{N: 3}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, bad := range []struct {
		name string
		id   int
	}{
		{"a", 2},        // declared, out of range
		{"lazy", 3},     // template, out of range
		{"bad/name", 0}, // invalid lazy name
	} {
		if _, err := r.ResolveShard(bad.name, bad.id); err == nil {
			t.Errorf("ResolveShard(%q, %d) accepted", bad.name, bad.id)
		}
	}
	if got := r.OpenShards(); len(got) != 0 {
		t.Fatalf("refused resolutions instantiated shards: %+v", got)
	}
	for _, ok := range []struct {
		name string
		id   int
	}{{"a", 1}, {"lazy", 2}, {"lazy", -1}} {
		if sh, err := r.ResolveShard(ok.name, ok.id); err != nil || sh.Core == nil || sh.Blobs == nil {
			t.Errorf("ResolveShard(%q, %d) = %+v, %v", ok.name, ok.id, sh, err)
		}
	}
	if got := r.OpenShards(); len(got) != 2 {
		t.Fatalf("OpenShards = %+v, want a and lazy", got)
	}

	strict, err := NewRouter([]Spec{{Name: "a", N: 2}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := strict.ResolveShard("unknown", 0); err == nil {
		t.Fatal("unknown shard accepted without a template")
	}
	if got := strict.OpenShards(); len(got) != 0 {
		t.Fatalf("refused resolution instantiated shards: %+v", got)
	}
}

// TestRouterVerifyKeyringOverTCP serves a router whose VerifyKeyring
// arms one shard and declines the other: the armed shard drops a SUBMIT
// forged under its ring, the declining one falls back to the server-wide
// WithVerifyKeyring ring and drops a SUBMIT forged under that — and each
// shard's honest client completes its writes behind the forgery.
func TestRouterVerifyKeyringOverTCP(t *testing.T) {
	const n = 2
	shardRing, shardSigners := crypto.NewTestKeyring(n, 41)
	serverRing, serverSigners := crypto.NewTestKeyring(n, 42)
	r, err := NewRouter([]Spec{{Name: "armed", N: n}, {Name: "fallback", N: n}}, Options{
		VerifyKeyring: func(name string, _ int) *crypto.Keyring {
			if name == "armed" {
				return shardRing
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.ServeTCPSharded(ln, r, transport.WithVerifyKeyring(serverRing))
	defer srv.Stop()

	rejects := obs.Default().Counter("faust_verify_reject_total")
	for _, tc := range []struct {
		shard          string
		ring           *crypto.Keyring
		honest, forger *crypto.Signer
	}{
		{"armed", shardRing, shardSigners[0], serverSigners[0]},
		{"fallback", serverRing, serverSigners[0], shardSigners[0]},
	} {
		link, err := transport.DialTCPShard(ln.Addr().String(), tc.shard, 0)
		if err != nil {
			t.Fatal(err)
		}
		before := rejects.Value()
		// Signed by a key the shard's ring does not hold for client 0.
		forged := &wire.Submit{T: 1, Inv: wire.Invocation{Client: 0, Op: wire.OpWrite, Reg: 0}}
		forged.Inv.SubmitSig = tc.forger.Sign(crypto.DomainSubmit, wire.SubmitPayload(wire.OpWrite, 0, 1, nil))
		if err := link.Send(forged); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		// Two writes: a reply to the forgery could pass for the first
		// one's, never for both.
		go func() {
			c := ustor.NewClient(0, tc.ring, tc.honest, link)
			err := c.Write([]byte("honest-1"))
			if err == nil {
				err = c.Write([]byte("honest-2"))
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s: honest writes behind the forgery: %v", tc.shard, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: honest writes behind the forgery never completed", tc.shard)
		}
		if got := rejects.Value() - before; got != 1 {
			t.Fatalf("%s: %d SUBMITs rejected, want the forged one", tc.shard, got)
		}
		_ = link.Close()
	}
}

func TestParseManifest(t *testing.T) {
	input := `
# tenants
acme     n=4 persist
initech  n=8
globex   n=2 persist=false
`
	specs, err := ParseManifest(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	want := []Spec{
		{Name: "acme", N: 4, Persist: true},
		{Name: "initech", N: 8},
		{Name: "globex", N: 2},
	}
	if len(specs) != len(want) {
		t.Fatalf("got %d specs, want %d", len(specs), len(want))
	}
	for i := range want {
		if specs[i] != want[i] {
			t.Errorf("spec %d = %+v, want %+v", i, specs[i], want[i])
		}
	}

	for _, bad := range []string{
		"noN persist",
		"bad/name n=2",
		"x n=zero",
		"x n=2 bogus=1",
	} {
		if _, err := ParseManifest(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseManifest(%q) accepted", bad)
		}
	}
}

func TestParseSpec(t *testing.T) {
	sp, err := ParseSpec("n=4,persist")
	if err != nil {
		t.Fatal(err)
	}
	if sp.N != 4 || !sp.Persist {
		t.Fatalf("ParseSpec = %+v", sp)
	}
	sp, err = ParseSpec("n=2,persist=false")
	if err != nil {
		t.Fatal(err)
	}
	if sp.N != 2 || sp.Persist {
		t.Fatalf("ParseSpec = %+v", sp)
	}
	for _, bad := range []string{"", "persist", "n=-1", "n=4,whatever=1"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}
