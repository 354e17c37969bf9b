package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/smartgrid/aria/internal/core"
	"github.com/smartgrid/aria/internal/directory"
	"github.com/smartgrid/aria/internal/job"
	"github.com/smartgrid/aria/internal/transport"
	"github.com/smartgrid/aria/internal/wal"
)

// Layer microbenchmarks time direct calls into one layer's public functions on
// inputs captured from a workload. Allocations per operation repeat
// exactly from run to run, so they are a machine-independent signal;
// nanoseconds per operation are host-dependent.

// microBudget bounds the wall time of each timed loop.
const microBudget = 300 * time.Millisecond

// measure runs op over n inputs, repeating whole passes until the budget
// is spent, and returns ns and allocations per input.
func measure(n int, op func(i int) error) (nsPerOp, allocsPerOp float64, err error) {
	if n == 0 {
		return 0, 0, nil
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	ops := 0
	for time.Since(start) < microBudget || ops == 0 {
		for i := 0; i < n; i++ {
			if err := op(i); err != nil {
				return 0, 0, err
			}
		}
		ops += n
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	return float64(elapsed.Nanoseconds()) / float64(ops), float64(ms1.Mallocs-ms0.Mallocs) / float64(ops), nil
}

// runMicro runs the transport, directory and WAL microbenchmarks. walDir must
// sit on the filesystem whose fsync cost is being measured.
func runMicro(msgs []core.Message, walDir string) (map[string]float64, error) {
	out := map[string]float64{}

	// transport: frame codec round trip (WriteMessage then ReadMessage).
	var buf bytes.Buffer
	ns, allocs, err := measure(len(msgs), func(i int) error {
		buf.Reset()
		if err := transport.WriteMessage(&buf, msgs[i]); err != nil {
			return err
		}
		_, err := transport.ReadMessage(&buf)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("codec microbenchmark: %w", err)
	}
	out["transport.codec_ns_per_msg"], out["transport.codec_allocs_per_msg"] = ns, allocs

	// directory: digest codec round trip, then Learn/Gossip on a store.
	var payloads [][]byte
	var digests []directory.Digest
	for _, m := range msgs {
		if len(m.Dir) == 0 {
			continue
		}
		ds, err := directory.Decode(m.Dir)
		if err != nil {
			return nil, fmt.Errorf("captured digest payload: %w", err)
		}
		payloads = append(payloads, m.Dir)
		digests = append(digests, ds...)
	}
	ns, allocs, err = measure(len(payloads), func(i int) error {
		ds, err := directory.Decode(payloads[i])
		if err != nil {
			return err
		}
		_ = directory.Encode(ds)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("digest codec microbenchmark: %w", err)
	}
	perDigest := ratio(float64(len(payloads)), float64(len(digests)))
	out["directory.codec_ns_per_digest"] = ns * perDigest
	out["directory.codec_allocs_per_digest"] = allocs * perDigest

	var store *directory.Store
	var now time.Duration
	ns, allocs, err = measure(len(digests), func(i int) error {
		if i == 0 {
			store = directory.New(core.DefaultDirectoryCapacity, core.DefaultDirectoryTTL)
			now = 0
		}
		now += 10 * time.Millisecond
		store.Learn(digests[i], now)
		if i%4 == 3 {
			store.Gossip(core.DefaultDirectoryGossip, now)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["directory.learn_gossip_ns_per_digest"] = ns
	out["directory.learn_gossip_allocs_per_digest"] = allocs

	// wal: Append+Sync of the records an assignee journals per job
	// (enqueue, start, complete), on a real file store.
	recs := walRecords(msgs)
	if err := walMicro(recs, walDir, out); err != nil {
		return nil, fmt.Errorf("wal microbenchmark: %w", err)
	}
	return out, nil
}

// walRecords builds the assignee-side lifecycle records of the captured
// jobs.
func walRecords(msgs []core.Message) []wal.Record {
	seen := map[job.UUID]bool{}
	var recs []wal.Record
	for _, m := range msgs {
		if m.Job.UUID == "" || seen[m.Job.UUID] {
			continue
		}
		seen[m.Job.UUID] = true
		p := m.Job
		at := p.SubmittedAt
		recs = append(recs,
			wal.Record{Type: wal.RecEnqueue, At: at, UUID: p.UUID, Profile: &p, Peer: m.From, Seq: uint64(len(recs))},
			wal.Record{Type: wal.RecStart, At: at + time.Second, UUID: p.UUID, Profile: &p, Peer: m.From, Seq: uint64(len(recs) + 1)},
			wal.Record{Type: wal.RecComplete, At: at + time.Minute, UUID: p.UUID, Seq: uint64(len(recs) + 2)},
		)
	}
	return recs
}

const (
	walMaxOps    = 1200
	walMaxBudget = 1500 * time.Millisecond
)

func walMicro(recs []wal.Record, dir string, out map[string]float64) error {
	if len(recs) == 0 {
		return fmt.Errorf("no captured jobs to journal")
	}
	defer os.RemoveAll(dir)
	store, err := wal.OpenFileStore(dir)
	if err != nil {
		return err
	}
	defer store.Close()
	j := wal.New(store, wal.Options{})
	var lat []float64
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < walMaxOps && (i < 100 || time.Since(start) < walMaxBudget); i++ {
		t0 := time.Now()
		if err := j.Append(recs[i%len(recs)]); err != nil {
			return err
		}
		if err := j.Sync(); err != nil {
			return err
		}
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	runtime.ReadMemStats(&ms1)
	out["wal.append_sync_us_p50"] = median(lat)
	out["wal.append_sync_us_p99"] = quantile(lat, 0.99)
	out["wal.append_allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(lat))
	out["wal.micro_ops"] = float64(len(lat))
	return nil
}
