// Package clustertest starts in-process tcp jobs for the tests of the
// packages built on cluster: one goroutine per rank stands in for one
// process per rank, which the transport cannot tell apart.
package clustertest

import (
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/netmodel"
)

// StartTCP brings up a p-rank tcp job on localhost. opts gives rank r's
// options; StartTCP fills in Rank, Size, Rendezvous and rank 0's
// OnListen. The clusters close when the test ends. The test is skipped
// when the sandbox forbids loopback listening and fails when a rank's
// rendezvous fails.
func StartTCP(t testing.TB, p int, params netmodel.Params, wire cluster.Wire, opts func(r int) cluster.TCPOptions) []*cluster.Cluster {
	t.Helper()
	clusters := make([]*cluster.Cluster, p)
	errs := make([]error, p)
	addr := make(chan string, 1)
	var wg sync.WaitGroup
	rank := func(r int, rendezvous string) {
		defer wg.Done()
		o := opts(r)
		o.Rank, o.Size, o.Rendezvous = r, p, rendezvous
		if r == 0 {
			o.OnListen = func(a string) { addr <- a }
		}
		clusters[r], errs[r] = cluster.NewTCP(o, params, wire)
		if r == 0 && errs[r] != nil {
			close(addr) // wake the waiter if listen itself failed
		}
	}
	wg.Add(1)
	go rank(0, "")
	a, ok := <-addr
	if !ok {
		wg.Wait()
		t.Skipf("tcp transport unavailable in this sandbox (loopback listen failed): %v", errs[0])
	}
	wg.Add(p - 1)
	for r := 1; r < p; r++ {
		go rank(r, a)
	}
	wg.Wait()
	t.Cleanup(func() {
		for _, c := range clusters {
			if c != nil {
				c.Close()
			}
		}
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d rendezvous failed: %v", r, err)
		}
	}
	return clusters
}
