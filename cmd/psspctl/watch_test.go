package main

import (
	"strings"
	"testing"

	"repro/internal/daemon"
)

// daemonStats is a plain daemon's view after a few jobs.
func daemonStats() daemon.Stats {
	return daemon.Stats{
		Running: 1, Queued: 2, Completed: 3, Failed: 4, Canceled: 5,
		Pool: daemon.PoolStats{
			Entries: 6, Capacity: 8, Images: 7, Hits: 9, Misses: 10,
			Evictions: 11, Respawns: 12, StoreHits: 13, StoreMisses: 14,
		},
		Tenants: []daemon.TenantStats{
			{Name: "ci", Running: 1, Jobs: 3, CyclesUsed: 4096, CyclesQuota: 1 << 20},
		},
		FrontierEdges: 77,
		Jobs:          []daemon.JobStatus{{ID: 42, Kind: "fuzz", State: "running"}},
	}
}

func checkContains(t *testing.T, text string, wants ...string) {
	t.Helper()
	for _, w := range wants {
		if !strings.Contains(text, w) {
			t.Errorf("stats text missing %q:\n%s", w, text)
		}
	}
}

// daemonLines are the daemon's own counters, printed on every daemon.
var daemonLines = []string{
	"daemon: 1 running, 2 queued; 3 completed, 4 failed, 5 canceled\n",
	"pool: 6/8 machines, 7 images; 9 hits, 10 misses, 11 evictions, 12 respawns; store 13 hits, 14 misses\n",
	"frontier: 77 edges\n",
	"tenants:\n  ci ",
	"running=1   jobs=3      cycles=4096/1048576\n",
	"job 42 fuzz      running\n",
}

func TestStatsTextPlainDaemon(t *testing.T) {
	text := statsText(daemonStats())
	checkContains(t, text, daemonLines...)
	for _, absent := range []string{"leases:", "workers:", "none attached"} {
		if strings.Contains(text, absent) {
			t.Errorf("plain daemon's stats text shows the fabric view (%q):\n%s", absent, text)
		}
	}
}

func TestStatsTextCoordinator(t *testing.T) {
	st := daemonStats()
	st.Fabric = daemon.FabricStats{
		Workers: []daemon.WorkerStats{
			{Name: "unix:/w0.sock", Alive: true, Busy: true, Leases: 3, ShardsDone: 12, ShardsPerSec: 2.5},
			{Name: "unix:/w1.sock", Leases: 1, ShardsDone: 4},
		},
		LeasesIssued: 5, LeasesReassigned: 1,
	}
	text := statsText(st)
	checkContains(t, text, daemonLines...)
	checkContains(t, text,
		"leases: 5 issued, 1 reassigned\n",
		"workers:\n  unix:/w0.sock            busy leases=3     shards=12           2.5 shards/s\n",
		"  unix:/w1.sock            dead leases=1     shards=4            0.0 shards/s\n",
	)

	// A coordinator with no workers attached still shows its fabric view.
	st.Fabric = daemon.FabricStats{Workers: []daemon.WorkerStats{}}
	checkContains(t, statsText(st), "leases: 0 issued, 0 reassigned\n", "workers:\n  (none attached)\n")
}
