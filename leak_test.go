package gallium_test

import (
	"context"
	"errors"
	"regexp"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	gallium "gallium"
)

// spawned matches a goroutine that the module's own code started.
var spawned = regexp.MustCompile(`(?m)^created by gallium[./]`)

// sessionGoroutines counts the live goroutines the module's own code
// started. Unlike a runtime.NumGoroutine delta it ignores goroutines the
// test framework is still unwinding from an earlier test.
func sessionGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return len(spawned.FindAll(buf[:n], -1))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// eventually polls cond until it holds: a goroutine that has signalled it
// is done may still be unwinding.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s: %d goroutines, %d started by the session", what, runtime.NumGoroutine(), sessionGoroutines())
		}
	}
}

// TestSessionGoroutines: an open session runs exactly one goroutine per
// worker — each worker commits its own write-backs, so nothing runs beside
// them — and every way a session ends takes them all down, returning
// runtime.NumGoroutine to its baseline: Open, Feed and Close; a Run whose
// context is cancelled mid-stream; and a session with a flow table
// reconfigured while traffic flows.
func TestSessionGoroutines(t *testing.T) {
	const workers = 4
	art, err := gallium.CompileBuiltin("mazunat", gallium.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen := iperfWorkload(8)
	open := func(t *testing.T, extra ...gallium.Option) *gallium.Session {
		t.Helper()
		opts := append([]gallium.Option{gallium.WithWorkers(workers), gallium.WithScenario(), gallium.WithFlows(gen.Tuples())}, extra...)
		s, err := gallium.Open(art, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	running := func(t *testing.T, when string) {
		t.Helper()
		if got := sessionGoroutines(); got != workers {
			t.Errorf("%s the session runs %d goroutines, want %d", when, got, workers)
		}
	}
	ended := func(t *testing.T, base int) {
		t.Helper()
		eventually(t, "the session's goroutines have exited", func() bool {
			return sessionGoroutines() == 0 && runtime.NumGoroutine() <= base
		})
	}

	t.Run("open-feed-close", func(t *testing.T) {
		base := runtime.NumGoroutine()
		s := open(t)
		running(t, "once open")
		if err := s.Feed(gen); err != nil {
			t.Fatal(err)
		}
		running(t, "after Feed")
		if _, err := s.Close(); err != nil {
			t.Fatal(err)
		}
		ended(t, base)
	})

	t.Run("open-cancel-close", func(t *testing.T) {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var delivered, mid atomic.Int64
		_, err := art.Run(ctx, gen, gallium.WithWorkers(workers), gallium.WithScenario(),
			gallium.WithDeliveries(func(gallium.Delivery) {
				if delivered.Add(1) == 100 {
					mid.Store(int64(sessionGoroutines()))
					cancel()
				}
			}))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
		if got := mid.Load(); got != workers {
			t.Errorf("mid-stream the session ran %d goroutines, want %d", got, workers)
		}
		ended(t, base)
	})

	t.Run("flow-table-reconfigure", func(t *testing.T) {
		base := runtime.NumGoroutine()
		s := open(t, gallium.WithFlowTable(gallium.FlowTable{Capacity: 4096}))
		running(t, "once open")
		fed := make(chan error, 1)
		go func() { fed <- s.Feed(gen) }()
		if err := s.Reconfigure(gallium.FlowTableUpdate{Table: gallium.FlowTable{Capacity: 8192}}); err != nil {
			t.Fatal(err)
		}
		if err := s.Reconfigure(gallium.NATRepartition{Bases: []uint16{2000, 22000, 42000, 62000}}); err != nil {
			t.Fatal(err)
		}
		if err := <-fed; err != nil {
			t.Fatal(err)
		}
		running(t, "after the feed and the reconfigurations")
		if _, err := s.Close(); err != nil {
			t.Fatal(err)
		}
		ended(t, base)
	})
}
