package cluster

import (
	"sync"
	"testing"
	"time"
)

func TestNilInjectorIsSafe(t *testing.T) {
	var fi *FaultInjector
	if fi.CrashDue(5) {
		t.Fatal("nil injector crashed")
	}
	if fi.SlowFactor(0) != 1 {
		t.Fatal("nil injector slows workers")
	}
	if drops, _ := fi.drawDropsUniform(1, 8); drops != 0 {
		t.Fatal("nil injector drops messages")
	}
	fi.NoteCheckpoint(100)
	fi.NoteRecovery(3, 3)
	if fi.Stats() != (RecoveryStats{}) {
		t.Fatal("nil injector accumulated stats")
	}
}

func TestCrashFiresExactlyOnce(t *testing.T) {
	fi := NewFaultInjector(FaultPlan{CrashAtRound: 3})
	if fi.CrashDue(1) || fi.CrashDue(2) {
		t.Fatal("crashed before the planned round")
	}
	if !fi.CrashDue(3) {
		t.Fatal("did not crash at the planned round")
	}
	// after rollback the engine's round counter passes 3 again: no refire
	if fi.CrashDue(3) || fi.CrashDue(4) || fi.CrashDue(100) {
		t.Fatal("crash fired twice")
	}
	if st := fi.Stats(); st.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", st.Crashes)
	}
}

func TestCrashDueConcurrentSingleWinner(t *testing.T) {
	fi := NewFaultInjector(FaultPlan{CrashAtRound: 1})
	var wg sync.WaitGroup
	fired := make([]bool, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fired[i] = fi.CrashDue(1)
		}(i)
	}
	wg.Wait()
	n := 0
	for _, f := range fired {
		if f {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d goroutines observed the crash, want exactly 1", n)
	}
}

func TestDropRetryMetering(t *testing.T) {
	net := NewNetwork(2)
	fi := NewFaultInjector(FaultPlan{DropProb: 0.5, DropSeed: 42, RetryBackoff: 0.25})
	net.setFaults(fi)
	const sends, size = 400, 10
	for k := 0; k < sends; k++ {
		net.Account(0, 1, size)
	}
	st := fi.Stats()
	if st.DroppedMessages == 0 {
		t.Fatal("p=0.5 never dropped a message over 400 sends")
	}
	if st.RetryBytes != st.DroppedMessages*size {
		t.Fatalf("retry bytes %d != dropped %d × size %d", st.RetryBytes, st.DroppedMessages, size)
	}
	if st.RetryTime != 0.25*float64(st.DroppedMessages) {
		t.Fatalf("retry time %f, want %f", st.RetryTime, 0.25*float64(st.DroppedMessages))
	}
	// wasted transmissions are real wire traffic: Attempts/Bytes include
	// them, while Messages counts only the logical payloads
	ns := net.Stats()
	if ns.Messages != sends {
		t.Fatalf("messages %d, want %d logical sends", ns.Messages, int64(sends))
	}
	if ns.Attempts != sends+st.DroppedMessages {
		t.Fatalf("attempts %d, want %d + %d retries", ns.Attempts, sends, st.DroppedMessages)
	}
	if ns.Bytes != int64(sends*size)+st.RetryBytes {
		t.Fatalf("bytes %d, want %d payload + %d retry", ns.Bytes, sends*size, st.RetryBytes)
	}
	// local deliveries are never dropped
	before := fi.Stats().DroppedMessages
	for k := 0; k < 100; k++ {
		net.Account(1, 1, size)
	}
	if fi.Stats().DroppedMessages != before {
		t.Fatal("local delivery was dropped")
	}
}

func TestDropRetriesBoundedByMaxRetries(t *testing.T) {
	net := NewNetwork(2)
	// DropProb 1 would loop forever without the cap
	fi := NewFaultInjector(FaultPlan{DropProb: 1, MaxRetries: 3})
	net.setFaults(fi)
	net.Account(0, 1, 8)
	st := fi.Stats()
	if st.DroppedMessages != 3 {
		t.Fatalf("dropped %d, want MaxRetries=3", st.DroppedMessages)
	}
	if net.Stats().Attempts != 4 { // 3 failed attempts + final delivery
		t.Fatalf("attempts %d, want 4", net.Stats().Attempts)
	}
	if net.Stats().Messages != 1 { // one logical message got through
		t.Fatalf("messages %d, want 1", net.Stats().Messages)
	}
}

func TestStragglerSlowsBusyMetering(t *testing.T) {
	c := New(4)
	c.InstallFaults(FaultPlan{StragglerWorker: 2, StragglerFactor: 8})
	g := c.NewGang()
	defer g.Close()
	g.Run(func(w int) { time.Sleep(2 * time.Millisecond) })
	busy := c.WorkerBusy()
	if busy[2] <= busy[0]*2 {
		t.Fatalf("8x straggler not visible in busy time: %v", busy)
	}
}

func TestRunOptionsApply(t *testing.T) {
	topoCalled := false
	c := New(2)
	fi := RunOptions{
		Trace:    true,
		Topology: func(net *Network) { topoCalled = true; net.SetLinkCost(0, 1, 0.5) },
		Faults:   &FaultPlan{DropProb: 0.1},
	}.Apply(c)
	if !topoCalled || c.Network().LinkCost(0, 1) != 0.5 {
		t.Fatal("topology not applied")
	}
	if !c.Network().traceOn.Load() {
		t.Fatal("trace not enabled")
	}
	if fi == nil || c.Faults() != fi {
		t.Fatal("faults not installed")
	}
	// zero options: nothing installed, nil injector returned
	c2 := New(2)
	if fi2 := (RunOptions{}).Apply(c2); fi2 != nil || c2.Faults() != nil || c2.Network().traceOn.Load() {
		t.Fatal("zero RunOptions had side effects")
	}
	// an inactive plan (all zero) is not installed either
	c3 := New(2)
	if fi3 := (RunOptions{Faults: &FaultPlan{}}).Apply(c3); fi3 != nil {
		t.Fatal("inactive fault plan installed")
	}
}

func TestDropRetryConcurrentSenders(t *testing.T) {
	// race check: many goroutines sending through a lossy network
	net := NewNetwork(4)
	net.EnableTrace()
	net.setFaults(NewFaultInjector(FaultPlan{DropProb: 0.3, DropSeed: 7}))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				net.Account(w, (w+1)%4, 16)
			}
		}(w)
	}
	wg.Wait()
	s := net.Stats()
	if s.Messages != 800 {
		t.Fatalf("messages %d, want 800 logical", s.Messages)
	}
	if s.Attempts <= 800 {
		t.Fatalf("attempts %d, want retries above the 800 payloads at p=0.3", s.Attempts)
	}
}
