package mely

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestSpillRecoverAcrossRuntimes is the runtime-level restart path: a
// bounded spilling runtime overflows colors to disk under SyncAlways,
// stops (durable close), and a second runtime on the same SpillDir
// recovers the backlog — every spilled event executes exactly once, in
// per-color FIFO order, with Stats reporting the recovery.
func TestSpillRecoverAcrossRuntimes(t *testing.T) {
	dir := t.TempDir()
	const (
		colors   = 3
		perColor = 40
		bound    = 4 // per-color in-memory bound: seqs >= bound spill
	)
	cfg := Config{
		Cores:             2,
		MaxQueuedPerColor: bound,
		OverloadPolicy:    OverloadSpill,
		SpillDir:          dir,
		SpillSync:         SpillSyncAlways,
		SpillRecover:      true,
	}

	// Run 1: fill each color's in-memory bound, spill the rest. The
	// workers never start, so nothing drains — the first `bound` posts
	// of each color stay in memory (dropped at Stop, like any queued
	// event), and seqs [bound, perColor) land on disk.
	rt1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h1 := rt1.Register("work", func(ctx *Ctx) {})
	for seq := 0; seq < perColor; seq++ {
		for c := 1; c <= colors; c++ {
			if err := rt1.Post(h1, Color(c), seq); err != nil {
				t.Fatalf("post color %d seq %d: %v", c, seq, err)
			}
		}
	}
	s1 := rt1.Stats()
	wantSpilled := int64(colors * (perColor - bound))
	if s1.SpilledEvents != wantSpilled {
		t.Fatalf("run 1 spilled %d events, want %d", s1.SpilledEvents, wantSpilled)
	}
	if s1.SpillSyncs == 0 {
		t.Fatal("run 1: SyncAlways recorded no spill syncs")
	}
	rt1.Stop()
	if segs, _ := filepath.Glob(filepath.Join(dir, "*.seg")); len(segs) == 0 {
		t.Fatal("durable Stop left no segment files to recover")
	}

	// Run 2: same registration order (records reference handlers by
	// index), recover, drain, and check the execution trace.
	rt2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	var mu sync.Mutex
	got := make(map[Color][]int)
	_ = rt2.Register("work", func(ctx *Ctx) {
		mu.Lock()
		got[ctx.Color()] = append(got[ctx.Color()], ctx.Data().(int))
		mu.Unlock()
	})
	s2 := rt2.Stats()
	if s2.RecoveredEvents != wantSpilled {
		t.Fatalf("RecoveredEvents = %d, want %d", s2.RecoveredEvents, wantSpilled)
	}
	if s2.TornRecords != 0 {
		t.Fatalf("TornRecords = %d after a clean close, want 0", s2.TornRecords)
	}
	if err := rt2.Start(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := rt2.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	for c := 1; c <= colors; c++ {
		seqs := got[Color(c)]
		if len(seqs) != perColor-bound {
			t.Fatalf("color %d executed %d recovered events, want %d: %v",
				c, len(seqs), perColor-bound, seqs)
		}
		for i, seq := range seqs {
			if want := bound + i; seq != want {
				t.Fatalf("color %d: position %d executed seq %d, want %d (FIFO violated): %v",
					c, i, seq, want, seqs)
			}
		}
	}
	s2 = rt2.Stats()
	if s2.ReloadedEvents != wantSpilled {
		t.Fatalf("ReloadedEvents = %d, want %d", s2.ReloadedEvents, wantSpilled)
	}
	if s2.SpilledNow != 0 {
		t.Fatalf("SpilledNow = %d after drain, want 0", s2.SpilledNow)
	}
	assertAdmissionEmpty(t, rt2)
}

// TestSpillRecoverValidation pins the config contract: recovery
// demands an explicit SpillDir and the spill policy.
func TestSpillRecoverValidation(t *testing.T) {
	_, err := New(Config{
		MaxQueuedEvents: 8,
		OverloadPolicy:  OverloadSpill,
		SpillRecover:    true, // no SpillDir
	})
	if err == nil {
		t.Fatal("SpillRecover without SpillDir was accepted")
	}
	_, err = New(Config{
		MaxQueuedEvents: 8,
		OverloadPolicy:  OverloadReject,
		SpillDir:        t.TempDir(),
		SpillRecover:    true,
	})
	if err == nil {
		t.Fatal("SpillRecover without OverloadSpill was accepted")
	}
	for _, bad := range []SpillSyncPolicy{-1, 99} {
		if _, err := New(Config{MaxQueuedEvents: 8, SpillSync: bad}); err == nil {
			t.Fatalf("SpillSync %d was accepted", int(bad))
		}
	}
}

// TestParseSpillSyncPolicy round-trips the flag surface.
func TestParseSpillSyncPolicy(t *testing.T) {
	for _, p := range []SpillSyncPolicy{SpillSyncNone, SpillSyncInterval, SpillSyncAlways} {
		got, err := ParseSpillSyncPolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip %v: got %v, err %v", p, got, err)
		}
	}
	if got, err := ParseSpillSyncPolicy(""); err != nil || got != SpillSyncNone {
		t.Fatalf("empty string: got %v, err %v", got, err)
	}
	if _, err := ParseSpillSyncPolicy("fsync"); err == nil {
		t.Fatal("bogus policy name was accepted")
	}
	_ = fmt.Sprint(SpillSyncPolicy(7)) // String must not panic on unknowns
}
