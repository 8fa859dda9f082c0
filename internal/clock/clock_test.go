package clock

import (
	"testing"
	"time"
)

// recv takes the pending tick of t, if any, without blocking.
func recv(t *Ticker) (time.Time, bool) {
	select {
	case at := <-t.C:
		return at, true
	default:
		return time.Time{}, false
	}
}

func TestFakeTicksInTimeOrder(t *testing.T) {
	f := NewFake()
	start := f.Now()
	a, b := f.NewTicker(2*time.Second), f.NewTicker(3*time.Second)
	defer a.Stop()
	defer b.Stop()
	// Step one second at a time and take every tick as it falls due: the
	// merged stream is a's and b's schedules interleaved by time.
	var got []string
	for i := 0; i < 6; i++ {
		f.Advance(time.Second)
		for _, tk := range []struct {
			name string
			t    *Ticker
		}{{"a", a}, {"b", b}} {
			if at, ok := recv(tk.t); ok {
				got = append(got, tk.name+at.Sub(start).String())
			}
		}
	}
	want := []string{"a2s", "b3s", "a4s", "a6s", "b6s"}
	if len(got) != len(want) {
		t.Fatalf("ticks = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", got, want)
		}
	}
}

func TestFakeMissedTicksCollapse(t *testing.T) {
	f := NewFake()
	start := f.Now()
	tk := f.NewTicker(time.Second)
	defer tk.Stop()
	f.Advance(10 * time.Second) // ten ticks fall due, nobody reads
	at, ok := recv(tk)
	if !ok || at.Sub(start) != time.Second {
		t.Fatalf("first tick = %v, %v; want the 1s tick", at.Sub(start), ok)
	}
	if _, ok := recv(tk); ok {
		t.Fatal("a reader that missed ticks got a backlog")
	}
	f.Advance(time.Second)
	if at, ok := recv(tk); !ok || at.Sub(start) != 11*time.Second {
		t.Fatalf("next tick = %v, %v; want 11s", at.Sub(start), ok)
	}
}

func TestFakeStopEndsDelivery(t *testing.T) {
	f := NewFake()
	tk := f.NewTicker(time.Second)
	tk.Stop()
	f.Advance(5 * time.Second)
	if _, ok := recv(tk); ok {
		t.Fatal("stopped ticker ticked")
	}
}

func TestFakeSleepAdvancesAcrossTicks(t *testing.T) {
	f := NewFake()
	start := f.Now()
	tk := f.NewTicker(time.Second)
	defer tk.Stop()
	f.Sleep(1500 * time.Millisecond) // returns at once
	if d := f.Now().Sub(start); d != 1500*time.Millisecond {
		t.Fatalf("Sleep moved the clock by %v", d)
	}
	if at, ok := recv(tk); !ok || at.Sub(start) != time.Second {
		t.Fatalf("tick during Sleep = %v, %v; want 1s", at.Sub(start), ok)
	}
}
