package pshard

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"

	"espresso/internal/nvm"
	"espresso/internal/pheap"
	"espresso/internal/pindex"
)

// RecoveryStats reports what one shard's open-time recovery did. The
// device-traffic delta is the deterministic input to the shardedkv
// experiment's modeled restart-time series.
type RecoveryStats struct {
	// Created: the shard image was missing from the store and the shard
	// was recreated empty (legal only as the tail of an interrupted set
	// creation — see the manifest crash rule).
	Created bool
	// GCRecovered: the image carried an interrupted collection that
	// pgc recovery finished.
	GCRecovered bool
	// WallNS is this shard's recovery wall time. Shards recover in
	// parallel, so the set's restart time tracks the slowest shard, not
	// the sum of these.
	WallNS int64
	// Dev is the shard device's traffic during recovery (heap load,
	// interrupted-collection replay, index repair walk).
	Dev nvm.Stats
	// Index is the pindex recovery pass's repair report.
	Index pindex.RecoverStats
	// Salvage is the heap-level salvage report (nil outside degraded
	// mode; empty when a degraded open found nothing to amputate).
	Salvage *pheap.SalvageReport
}

// fanOut runs fn(i) for each of n shards with at most workers running
// concurrently, joining every shard's error. A panicking shard (a
// corrupt image tripping an invariant) is converted into that shard's
// error instead of killing the process — the other workers finish, and
// the caller sees the joined failure.
func fanOut(n, workers int, fn func(i int) error) error {
	if workers < 1 || workers > n {
		workers = n
	}
	sem := make(chan struct{}, workers)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			// The shard label makes CPU profiles of a slow restart say
			// which shard's recovery burned the time.
			pprof.Do(context.Background(), pprof.Labels("shard", strconv.Itoa(i)), func(context.Context) {
				errs[i] = protect(fn, i)
			})
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func protect(fn func(int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pshard: shard %d: panic: %v", i, r)
		}
	}()
	return fn(i)
}
