package main

import "testing"

// TestParsePeersRefusesOutsiders: every -peers id must name another
// member of the group; the offline mesh would otherwise dial a peer no
// protocol message can come from.
func TestParsePeersRefusesOutsiders(t *testing.T) {
	peers, err := parsePeers("0=a:1, 2=b:2", 3, 1)
	if err != nil || len(peers) != 2 || peers[0] != "a:1" || peers[2] != "b:2" {
		t.Fatalf("parsePeers = %v, %v", peers, err)
	}
	for _, bad := range []string{"3=a:1", "-1=a:1", "1=a:1", "x=a:1", "0"} {
		if _, err := parsePeers(bad, 3, 1); err == nil {
			t.Errorf("parsePeers(%q) accepted for client 1 of 3", bad)
		}
	}
}
