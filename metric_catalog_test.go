package faust

import (
	"bytes"
	"net"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"faust/internal/blobfleet"
	"faust/internal/obs"
	"faust/internal/shard"
	"faust/internal/transport"
)

// TestMetricCatalogMatchesREADME: every metric family the process exposes
// has a row in README's "Metric catalog" table, and every family the
// table names is exposed — an operator reading the table finds what
// /metrics serves, no more and no less.
func TestMetricCatalogMatchesREADME(t *testing.T) {
	// Open one shard end to end — with a blob fleet, through a TCP
	// handshake — so the families registered per shard and per backend
	// exist; the refused dial records an event, which brings the event
	// counter family into the exposition.
	fleet, err := blobfleet.ParseFleetSpec("mem")
	if err != nil {
		t.Fatal(err)
	}
	router, err := shard.NewRouter([]shard.Spec{{Name: "catalog", N: 1}}, shard.Options{BlobFleet: fleet})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.ServeTCPSharded(ln, router)
	defer srv.Stop()
	link, err := transport.DialTCPShard(ln.Addr().String(), "catalog", 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = link.Close()
	if _, err := transport.DialTCPShard(ln.Addr().String(), "catalog", 1); err == nil {
		t.Fatal("out-of-range client id accepted")
	}

	var exposition bytes.Buffer
	obs.Default().WritePrometheus(&exposition)
	exposed := make(map[string]bool)
	histograms := make(map[string]bool)
	for _, line := range strings.Split(exposition.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			exposed[f[2]] = true
			histograms[f[2]] = f[3] == "histogram"
		}
	}
	// A histogram's _p50/_p99/_p999 gauges are part of its row.
	for name := range exposed {
		for _, suffix := range []string{"_p50", "_p99", "_p999"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && histograms[base] {
				delete(exposed, name)
			}
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, catalog, ok := strings.Cut(string(readme), "Metric catalog:")
	if !ok {
		t.Fatal(`README has no "Metric catalog:" table`)
	}
	family := regexp.MustCompile("`(faust_[a-z0-9_]+)")
	documented := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimLeft(catalog, "\n"), "\n") {
		if !strings.HasPrefix(line, "|") {
			break // end of the table
		}
		// The first cell lists the row's families; `\|` escapes a pipe
		// inside a label set.
		cells := strings.Split(strings.ReplaceAll(line, `\|`, " "), "|")
		for _, m := range family.FindAllStringSubmatch(cells[1], -1) {
			documented[m[1]] = true
		}
	}

	var undocumented, stale []string
	for name := range exposed {
		if !documented[name] {
			undocumented = append(undocumented, name)
		}
	}
	for name := range documented {
		if !exposed[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(undocumented)
	sort.Strings(stale)
	if len(undocumented) > 0 {
		t.Errorf("exposed but missing from the README metric catalog: %v", undocumented)
	}
	if len(stale) > 0 {
		t.Errorf("in the README metric catalog but never exposed: %v", stale)
	}
}
