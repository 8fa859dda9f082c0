// Collab reproduces the collaborative-editing scenario of Section 3 and
// Figure 2 of the paper: Alice and Bob collaborate from Europe during
// their day while Carlos (America) is asleep. Alice's stability cut ends
// up exactly stable_Alice([10, 8, 3]) — she is consistent with herself up
// to her operation with timestamp 10, with Bob up to 8, and with Carlos
// only up to 3. When Carlos comes back online, everything becomes stable.
// The program exits non-zero if the cut differs from the paper's.
//
// Run with:
//
//	go run ./examples/collab
package main

import (
	"fmt"
	"log"
	"slices"
	"time"

	"faust"
)

const (
	aliceID  = 0
	bobID    = 1
	carlosID = 2
)

func main() {
	// Dummy reads are disabled so the operation sequence (and hence the
	// timestamps) match Figure 2 exactly; stability still propagates
	// through operations and offline probes.
	svc := faust.NewTestService(3, 2009,
		faust.WithoutDummyReads(),
		faust.WithProbeTimeout(100*time.Millisecond),
		faust.WithPollInterval(20*time.Millisecond),
	)
	defer svc.Close()

	var cuts []faust.Cut
	alice, err := svc.Client(aliceID, faust.OnStable(func(w faust.Cut) {
		cuts = append(cuts, w)
		fmt.Printf("  stable_Alice(%v)\n", w)
	}))
	if err != nil {
		log.Fatal(err)
	}
	bob, err := svc.Client(bobID)
	if err != nil {
		log.Fatal(err)
	}
	carlos, err := svc.Client(carlosID)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("— morning in Europe: Alice edits the shared file —")
	for i := 1; i <= 3; i++ {
		must(alice.Write([]byte(fmt.Sprintf("alice edit %d", i))))
	}

	fmt.Println("— Carlos checks in before going to sleep (reads Alice) —")
	if _, _, err := carlos.Read(aliceID); err != nil {
		log.Fatal(err)
	}
	// Alice syncs with Carlos's state: her timestamp 4.
	if _, _, err := alice.Read(carlosID); err != nil {
		log.Fatal(err)
	}

	fmt.Println("— Carlos is asleep; Alice keeps editing (timestamps 5..8) —")
	for i := 5; i <= 8; i++ {
		must(alice.Write([]byte(fmt.Sprintf("alice edit %d", i))))
	}

	fmt.Println("— Bob reviews Alice's work —")
	if _, _, err := bob.Read(aliceID); err != nil {
		log.Fatal(err)
	}
	// Alice syncs with Bob (timestamp 9), then writes once more (10).
	if _, _, err := alice.Read(bobID); err != nil {
		log.Fatal(err)
	}
	ts10, err := alice.Write([]byte("alice edit 10"))
	if err != nil {
		log.Fatal(err)
	}

	cut := alice.StableCut()
	fmt.Printf("\nAlice's stability cut: %v   (Figure 2 of the paper: [10 8 3])\n", cut)
	fmt.Printf("  consistent with herself up to t=%d\n", cut[aliceID])
	fmt.Printf("  consistent with Bob     up to t=%d\n", cut[bobID])
	fmt.Printf("  consistent with Carlos  up to t=%d (he is asleep)\n", cut[carlosID])
	if want := (faust.Cut{10, 8, 3}); !slices.Equal(cut, want) {
		log.Fatalf("stable_Alice(%v), want %v", cut, want)
	}

	fmt.Println("\n— Carlos wakes up and reads Alice's latest work —")
	if _, _, err := carlos.Read(aliceID); err != nil {
		log.Fatal(err)
	}
	// Stability for Alice's op 10 w.r.t. everyone now arrives via the
	// offline PROBE/VERSION exchange.
	if err := alice.WaitStable(ts10, 10*time.Second); err != nil {
		log.Fatalf("stability after Carlos's return: %v", err)
	}
	fmt.Printf("all of Alice's operations are now stable: cut = %v\n", alice.StableCut())
}

func must(ts faust.Timestamp, err error) {
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  write committed with timestamp %d\n", ts)
}
