package main

import (
	"fmt"
	"os"
	"sort"
	"time"
)

// layerMetrics lists every per-layer metric the traced run prints, with its
// unit, in ladder order (cc → kernel → engines → workpool → daemon → client
// → fabric). A layer that does no work on a workload reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"cc.compile_ms", "ms"},
	{"kernel.boot_us", "us"},
	{"kernel.request_us", "us"},
	{"kernel.request_insts", "count"},
	{"kernel.request_allocs", "count"},
	{"kernel.crash_share", "share"},
	{"kernel.requests", "count"},
	{"attack.self_us", "us"},
	{"attack.verified_share", "share"},
	{"campaign.shard_ms", "ms"},
	{"campaign.merge_us", "us"},
	{"fuzz.shard_ms", "ms"},
	{"fuzz.merge_ms", "ms"},
	{"fuzz.corpus_admit_share", "share"},
	{"loadgen.shard_ms", "ms"},
	{"loadgen.merge_us", "us"},
	{"workpool.busy_share", "share"},
	{"daemon.do_us.boot", "us"},
	{"daemon.do_us.attack", "us"},
	{"daemon.do_us.loadtest", "us"},
	{"daemon.do_us.fuzz", "us"},
	{"daemon.pool_hit_share", "share"},
	{"client.ping_us", "us"},
	{"client.wire_us", "us"},
	{"fabric.lease_ms", "ms"},
	{"fabric.leases_per_job", "count"},
	{"fabric.reissued", "count"},
	{"fabric.tax_ratio", "ratio"},
	{"trace.overhead_share", "share"},
	{"trace.allocs_per_job", "count"},
}

// ladder derives the per-layer metrics from the traced run's spans and
// counters, the set-up spans, the serial pass's allocations (at), and the
// untraced (base) and traced (tp) passes over the same jobs.
func ladder(tr, setupTr, at *tracer, base, tp *pass) map[string]metric {
	l := tr.layers()
	s := setupTr.layers()
	a := at.layers()
	c := tr.counters
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	v := map[string]float64{}
	v["cc.compile_ms"] = s["cc.compile"].meanMS()
	// Boots inside jobs (campaign victims, fuzz shards) when the workload
	// has them, else the set-up's boots.
	if l["kernel.boot"].count > 0 {
		v["kernel.boot_us"] = l["kernel.boot"].meanUS()
	} else {
		v["kernel.boot_us"] = s["kernel.boot"].meanUS()
	}
	req := l["kernel.request"]
	v["kernel.request_us"] = req.meanUS()
	v["kernel.request_insts"] = ratio(c["kernel.insts"], float64(req.count))
	v["kernel.request_allocs"] = a["kernel.request"].meanAllocs()
	v["kernel.crash_share"] = ratio(c["kernel.crashes"], float64(req.count))
	v["kernel.requests"] = float64(req.count)
	v["attack.self_us"] = l["attack.replication"].selfMeanUS()
	v["attack.verified_share"] = ratio(c["attack.verified"], c["attack.replications"])
	v["campaign.shard_ms"] = l["campaign.shard"].meanMS()
	v["campaign.merge_us"] = l["campaign.merge"].meanUS()
	v["fuzz.shard_ms"] = l["fuzz.shard"].meanMS()
	v["fuzz.merge_ms"] = l["fuzz.merge"].meanMS()
	v["fuzz.corpus_admit_share"] = ratio(c["fuzz.corpus"], c["fuzz.execs"])
	v["loadgen.shard_ms"] = l["loadgen.shard"].meanMS()
	v["loadgen.merge_us"] = l["loadgen.merge"].meanUS()
	v["workpool.busy_share"] = ratio(c["workpool.busy_ns"], c["workpool.capacity_ns"])
	for _, k := range []string{"boot", "attack", "loadtest", "fuzz"} {
		v["daemon.do_us."+k] = l["daemon.do."+k].meanUS()
	}
	v["daemon.pool_hit_share"] = ratio(c["pool.hits"], c["pool.hits"]+c["pool.misses"])
	v["client.ping_us"] = l["client.ping"].meanUS()
	// The wire cost of one warm boot: its socket latency minus its in-process
	// Do latency. Boots are the kind whose engine work is smallest, and a
	// difference over the larger kinds would be two passes' noise.
	if l["daemon.do.boot"].count > 0 {
		v["client.wire_us"] = l["job.boot"].meanUS() - l["daemon.do.boot"].meanUS()
	}
	v["fabric.lease_ms"] = ratio(c["fabric.busy_ns"], c["fabric.leases"]) / 1e6
	v["fabric.leases_per_job"] = ratio(c["fabric.issued"], float64(len(tp.lat)))
	v["fabric.reissued"] = c["fabric.reissued"]
	// Both sides untraced: the timed fabric pass over the local facade's
	// untraced replay of the same jobs, the first of the single client's.
	if n := int(c["fabric.local_jobs"]); n > 0 {
		v["fabric.tax_ratio"] = ratio(float64(sumDur(base.lat[:n])), c["fabric.local_ns"])
	}
	v["trace.overhead_share"] = ratio(float64(sumDur(tp.lat)), float64(sumDur(base.lat))) - 1
	v["trace.allocs_per_job"] = ratio(float64(tp.mallocs), float64(len(tp.lat)))

	printLadder(l, s, a)
	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// printLadder writes every span name's count, mean and mean self time to
// standard error, and its allocations per span from the serial pass.
func printLadder(run, setup, serial map[string]layerStats) {
	for _, part := range []struct {
		label  string
		layers map[string]layerStats
	}{{"set-up", setup}, {"run", run}, {"serial", serial}} {
		names := make([]string, 0, len(part.layers))
		for n := range part.layers {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			st := part.layers[n]
			if part.label == "serial" {
				fmt.Fprintf(os.Stderr, "ladder %-7s %-22s n=%-8d allocs=%10.1f self_allocs=%10.1f\n",
					part.label, n, st.count, st.meanAllocs(), st.selfMeanAllocs())
				continue
			}
			fmt.Fprintf(os.Stderr, "ladder %-7s %-22s n=%-8d mean=%10.1fus self=%10.1fus\n",
				part.label, n, st.count, st.meanUS(), st.selfMeanUS())
		}
	}
}
