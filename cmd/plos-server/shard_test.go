package main

import (
	"os"
	"sync"
	"testing"

	"plos"
)

// TestServerShardRolesEndToEnd wires a 2-shard plane entirely through the
// CLI surface: one -role agg process, two -role shard processes (here
// goroutines sharing the binary's run()), and five devices joining over
// real TCP. The bit-identity of the sharded plane is pinned in
// internal/protocol; this test covers the flag plumbing and role dispatch.
func TestServerShardRolesEndToEnd(t *testing.T) {
	devices := []int{2, 3}
	savePath := t.TempDir() + "/shard0.json"

	common := serverOptions{lambda: 100, cl: 1, cu: 0.2, rho: 1, epsAbs: 1e-3, seed: 1}

	aggBound := make(chan string, 1)
	aggErr := make(chan error, 1)
	go func() {
		o := common
		o.role, o.addr, o.shards = "agg", "127.0.0.1:0", len(devices)
		o.onListen = func(bound string) { aggBound <- bound }
		aggErr <- run(o)
	}()
	var aggAddr string // shards dial the aggregator; it must be listening first
	select {
	case aggAddr = <-aggBound:
	case err := <-aggErr:
		t.Fatalf("agg exited before listening: %v", err)
	}

	// Each shard starts its own devices once its listener is bound.
	var shardWg sync.WaitGroup
	shardErrs := make([]error, len(devices))
	clientWg := make([]*sync.WaitGroup, len(devices))
	for s := range devices {
		shardWg.Add(1)
		go func(s int) {
			defer shardWg.Done()
			o := common
			o.role, o.shardID, o.aggAddr = "shard", s, aggAddr
			o.addr, o.devices = "127.0.0.1:0", devices[s]
			o.onListen = func(bound string) { clientWg[s] = joinClients(t, bound, devices[s], 40) }
			if s == 0 {
				o.save = savePath
			}
			shardErrs[s] = run(o)
		}(s)
	}

	shardWg.Wait()
	for s, err := range shardErrs {
		if err != nil {
			t.Errorf("shard %d run: %v", s, err)
		}
	}
	if err := <-aggErr; err != nil {
		t.Errorf("agg run: %v", err)
	}
	for _, wg := range clientWg {
		if wg != nil { // nil when that shard failed before listening
			wg.Wait()
		}
	}

	f, err := os.Open(savePath)
	if err != nil {
		t.Fatalf("shard 0 saved model missing: %v", err)
	}
	defer f.Close()
	if _, err := plos.LoadModel(f); err != nil {
		t.Fatalf("shard 0 saved model unreadable: %v", err)
	}
}

// TestServerRejectsUnknownRole pins the role validation and the agg -save
// rejection (the aggregator holds no per-user models to save).
func TestServerRejectsUnknownRole(t *testing.T) {
	o := serverOptions{role: "coordinator"}
	if err := run(o); err == nil {
		t.Fatal("unknown role accepted")
	}
	o = serverOptions{role: "agg", save: "x.json"}
	if err := run(o); err == nil {
		t.Fatal("agg -save accepted")
	}
}
