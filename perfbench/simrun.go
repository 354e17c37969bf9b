package main

import (
	"fmt"
	"math"
	"runtime"
)

// replaysFor sizes a sim run from --seconds alone, never from host speed,
// so the simulated metrics of a seed are the same on every host.
func replaysFor(seconds int) int {
	return int(math.Max(1, math.Round(float64(seconds)/floodReplayNomS)))
}

// runSim runs one sim workload: replays in fresh child processes, extra
// set-up-only children until setup_s has minSetups samples, and the causal
// trace checker on a scaled-down copy.
func runSim(r *result, workload string, seed int64, seconds int, traced bool, work string) error {
	cfg, err := simConfig(workload, seed)
	if err != nil {
		return err
	}
	r.context["kernel"] = kernelName(cfg)
	r.context["nodes"] = cfg.Nodes
	r.context["scenario"] = cfg.Name

	check, err := runSimChild(simSpec{Workload: workload, Seed: seed, Check: true, WorkDir: work})
	if err != nil {
		return err
	}
	if check.CheckError != "" {
		r.fail("causal trace checker on the scaled-down copy: %s", check.CheckError)
	}
	r.notes = append(r.notes, fmt.Sprintf("causal trace check: %d jobs audited on a scaled-down copy", check.CheckJobs))

	if traced {
		return runSimTraced(r, workload, seed, work)
	}

	var outs []*simOut
	var setups []float64
	n := replaysFor(seconds)
	r.context["replays"] = n
	// Reference probes between replays, never during one: a replay keeps
	// every CPU busy. A replay is pure CPU work, so its run and result
	// times are scaled by the same factor as its CPU.
	refs := hostRefs{kind: refMemory}
	for i := 0; i < n; i++ {
		refs.probe(refsPerReplay)
		o, err := runSimChild(simSpec{Workload: workload, Seed: seed, Replay: i, WorkDir: work})
		if err != nil {
			return err
		}
		outs = append(outs, o)
		setups = append(setups, o.SetupSec)
	}
	refs.probe(refsPerReplay)
	hostFactor, err := refs.factor()
	if err != nil {
		return err
	}
	for i := n; len(setups) < minSetups; i++ {
		o, err := runSimChild(simSpec{Workload: workload, Seed: seed, Replay: i, SetupOnly: true, WorkDir: work})
		if err != nil {
			return err
		}
		setups = append(setups, o.SetupSec)
	}

	var runSecs, hostRunSecs, cpuPerJob, rss, results, hostResults, p50, p95 []float64
	var events, msgs, jobs, meanSum float64
	for i, o := range outs {
		checkReplay(r, i, o)
		runSecs = append(runSecs, o.busySec())
		hostRunSecs = append(hostRunSecs, o.RunSec)
		cpuPerJob = append(cpuPerJob, 1000*ratio(o.CPUSec, float64(o.Completed)))
		rss = append(rss, o.PeakRSSMB)
		results = append(results, lessSteal(o.ResultSec, o.ResultStealSec))
		hostResults = append(hostResults, o.ResultSec)
		events += float64(o.Events)
		msgs += float64(o.Msgs)
		jobs += float64(o.Completed)
		p50 = append(p50, o.CompletionP50Sec)
		p95 = append(p95, o.CompletionP95Sec)
		meanSum += o.CompletionMeanSec * float64(o.Completed)
	}
	r.set("setup_s", median(setups), len(setups), "overlay build through the first simulated event, median over set-ups")
	r.set("peak_rss_mb", median(rss), len(rss), "VmHWM of a fresh child per replay, median")
	r.set("ok_frac", 1-ratio(float64(r.failed), float64(r.attempted)), r.attempted, "1 - failed_frac (lost, failed or duplicated jobs over submitted)")
	r.set("run_s", median(runSecs)*hostFactor, len(runSecs), "sim_run_s: seconds from the first event to the horizon less steal, median over replays, in reference s")
	r.set("cpu_ms_per_job", median(cpuPerJob)*hostFactor, len(cpuPerJob), "replay process CPU from the first event to the horizon per completed job, median over replays, in reference ms")
	r.set("latency_p50_s", median(results)*hostFactor, len(results), "seconds from launching a replay to its result less steal, median over replays, in reference s")
	r.set("latency_tail_s", quantile(results, 1)*hostFactor, len(results), "seconds from launching a replay to its result less steal, slowest replay, in reference s")
	r.set("host.run_s", median(hostRunSecs), len(hostRunSecs), "run_s as the host clock read it: steal included, not scaled")
	r.set("host.cpu_ms_per_job", median(cpuPerJob), len(cpuPerJob), "cpu_ms_per_job in host ms, not scaled")
	r.set("host.latency_p50_s", median(hostResults), len(hostResults), "latency_p50_s as the host clock read it: steal included, not scaled")
	r.set("host.latency_tail_s", quantile(hostResults, 1), len(hostResults), "latency_tail_s as the host clock read it: steal included, not scaled")
	refs.report(r, "run_s, cpu_ms_per_job and latency_*")
	// Simulated outputs: identical on every host for a seed.
	r.set("sim_completion_mean_s", meanSum/math.Max(jobs, 1), int(jobs), "simulated mean completion time (Fig. 2)")
	r.set("sim_completion_p50_s", mean(p50), len(p50), "simulated completion p50, mean over replays")
	r.set("sim_completion_p95_s", mean(p95), len(p95), "simulated completion p95, mean over replays")
	r.set("sim_msgs_per_job", ratio(msgs, jobs), int(jobs), "simulated messages per completed job (Fig. 10)")
	r.set("sim_events", events, len(outs), "events executed over all replays")
	return nil
}

// checkReplay applies the per-replay correctness checks and accumulates
// attempted and failed jobs.
func checkReplay(r *result, i int, o *simOut) {
	r.attempted += o.Submitted + o.Lost
	bad := (o.Submitted - o.Completed) + o.Duplicates + o.Lost
	if o.Failed > bad {
		bad = o.Failed
	}
	r.failed += bad
	if o.Completed != o.Submitted || o.Duplicates != 0 || o.Lost != 0 {
		r.fail("replay %d: completed %d of %d submitted, %d duplicate starts, %d lost",
			i, o.Completed, o.Submitted, o.Duplicates, o.Lost)
	}
}

// runSimTraced makes the traced run: an untraced reference replay and a
// traced replay of the same seed, whose simulated results must match.
func runSimTraced(r *result, workload string, seed int64, work string) error {
	ref, err := runSimChild(simSpec{Workload: workload, Seed: seed, WorkDir: work})
	if err != nil {
		return err
	}
	tr, err := runSimChild(simSpec{Workload: workload, Seed: seed, Traced: true, WorkDir: work})
	if err != nil {
		return err
	}
	checkReplay(r, 0, ref)
	if ref.Fingerprint != tr.Fingerprint {
		r.fail("determinism: untraced replay %s and traced replay %s of seed %d differ", ref.Fingerprint, tr.Fingerprint, seed)
	}
	if tr.Counted != ref.Msgs {
		r.fail("counting wrapper saw %d transmissions, the recorder %d", tr.Counted, ref.Msgs)
	}
	for _, s := range tr.Spans {
		r.notes = append(r.notes, fmt.Sprintf("span %-22s layer=%-9s start=%8.3fs dur=%8.4fs", s.Name, s.Layer, s.Start, s.Sec))
	}
	jobs := float64(ref.Completed)
	ev := float64(ref.Events)
	cpu := func(l string) float64 { return tr.CPUByLayer[l] }
	r.set("sim.events", ev, 1, "Engine.Events() of the reference replay")
	r.set("sim.ns_per_event", 1e9*ref.busySec()/ev, int(ref.Events), "untraced run seconds less steal per event")
	r.set("sim.cpu_frac", cpu("sim"), 1, "CPU profile self share")
	r.set("sim.completion_mean_s", ref.CompletionMeanSec, ref.Completed, "simulated mean completion time (Fig. 2)")
	r.set("transport.cpu_frac", cpu("transport"), 1, "CPU profile self share (sim delivery)")
	r.set("transport.alloc_frac", tr.AllocByLayer["transport"], 1, "alloc_space profile share (sim delivery)")
	r.set("transport.write_syscalls_per_job", 0, 0, "no wire in the simulator")
	r.set("transport.codec_ns_per_msg", tr.Micro["transport.codec_ns_per_msg"], 1, "microbenchmark: WriteMessage+ReadMessage on captured messages")
	r.set("transport.codec_allocs_per_msg", tr.Micro["transport.codec_allocs_per_msg"], 1, "microbenchmark")
	r.set("core.cpu_frac", cpu("core"), 1, "CPU profile self share")
	r.set("core.msgs_per_job", ratio(float64(ref.Msgs), jobs), ref.Completed, "simulated messages per completed job (Fig. 10)")
	r.set("core.request_msgs_per_job", ratio(float64(ref.RequestMsgs), jobs), ref.Completed, "REQUEST transmissions per completed job")
	r.set("core.inform_msgs_per_job", ratio(float64(ref.InformMsgs), jobs), ref.Completed, "INFORM transmissions per completed job")
	for _, name := range []string{"core.discovery_s_p50", "core.discovery_s_p99", "core.queue_s_p50", "core.queue_s_p99"} {
		r.set(name, 0, 0, "live-only phase timing")
	}
	rounds := float64(ref.DirHits + ref.DirMisses)
	r.set("core.flood_fallback_frac", ratio(float64(ref.DirMisses+ref.DirFallbacks), rounds), int(rounds), "first discovery rounds that flooded (miss or starved probe); 0 with the directory off")
	r.set("directory.cpu_frac", cpu("directory"), 1, "CPU profile self share")
	r.set("directory.evictions_per_job", ratio(float64(ref.DirEvictions), jobs), ref.Completed, "directory evictions per completed job")
	r.set("directory.hit_frac", ratio(float64(ref.DirHits), rounds), int(rounds), "first rounds steered by the directory")
	for _, k := range []string{"directory.codec_ns_per_digest", "directory.codec_allocs_per_digest",
		"directory.learn_gossip_ns_per_digest", "directory.learn_gossip_allocs_per_digest"} {
		r.set(k, tr.Micro[k], 1, "microbenchmark on digests from a small iDirected capture replay (the flood workload gossips none)")
	}
	for _, k := range []string{"wal.append_sync_us_p50", "wal.append_sync_us_p99", "wal.append_allocs_per_op"} {
		r.set(k, tr.Micro[k], int(tr.Micro["wal.micro_ops"]), "microbenchmark: Append+Sync on a file store in the work directory")
	}
	r.set("overlay.build_s", spanSec(tr, "overlay.Build"), 1, "span around overlay.Build")
	r.set("overlay.cpu_frac", cpu("overlay"), 1, "CPU profile self share (set-up included)")
	r.set("sched.cpu_frac", cpu("sched"), 1, "CPU profile self share")
	r.set("wal.bytes_per_job", 0, 0, "journaling is off in the sim workloads")
	r.set("wal.cpu_frac", cpu("wal"), 1, "CPU profile self share")
	for _, name := range []string{"gate.submit_ms_p50", "gate.submit_ms_p99", "gate.cpu_ms_per_job", "gen.lag_p99_ms"} {
		r.set(name, 0, 0, "live-only")
	}
	r.set("runtime.allocs_per_event", ratio(float64(ref.Mallocs), ev), int(ref.Events), "MemStats mallocs per event, untraced replay")
	r.set("runtime.alloc_bytes_per_event", ratio(float64(ref.AllocBytes), ev), int(ref.Events), "MemStats bytes per event, untraced replay")
	r.set("runtime.gc_cpu_frac", ref.GCCPUFrac, 1, "MemStats.GCCPUFraction, untraced replay")
	r.set("runtime.gc_cycles", float64(ref.GCCycles), 1, "GC cycles during the untraced run segment")
	r.set("runtime.cpu_frac", cpu("runtime"), 1, "CPU samples with no repo frame (GC workers, scheduler)")
	r.set("trace.overhead_frac", tr.busySec()/ref.busySec()-1, 2, "traced/untraced run seconds less steal - 1, same seed")
	r.set("bench.cpu_frac", cpu("bench"), 1, "benchmark's own frames (counting wrapper)")
	r.set("scenario.cpu_frac", cpu("scenario"), 1, "CPU profile self share")
	r.set("metrics.cpu_frac", cpu("metrics"), 1, "CPU profile self share")
	return nil
}

// lessSteal takes the steal per CPU out of a replay's wall time: a replay
// keeps every CPU busy, so time the hypervisor stole from the guest
// stretches it by about that much.
func lessSteal(wallSec, stealSec float64) float64 {
	return wallSec - stealSec/float64(runtime.NumCPU())
}

// busySec is the run segment's wall time less steal.
func (o *simOut) busySec() float64 { return lessSteal(o.RunSec, o.StealSec) }

func spanSec(o *simOut, name string) float64 {
	for _, s := range o.Spans {
		if s.Name == name {
			return s.Sec
		}
	}
	return 0
}
