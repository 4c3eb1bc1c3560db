package harness

import (
	"slices"

	"github.com/disagglab/disagg/internal/engine"
	"github.com/disagglab/disagg/internal/engine/aurora"
	"github.com/disagglab/disagg/internal/engine/drill"
	"github.com/disagglab/disagg/internal/engine/legobase"
	"github.com/disagglab/disagg/internal/engine/monolithic"
	"github.com/disagglab/disagg/internal/engine/pilotdb"
	"github.com/disagglab/disagg/internal/engine/polardb"
	"github.com/disagglab/disagg/internal/engine/serverless"
	"github.com/disagglab/disagg/internal/engine/sharednothing"
	"github.com/disagglab/disagg/internal/engine/snowflake"
	"github.com/disagglab/disagg/internal/engine/socrates"
	"github.com/disagglab/disagg/internal/engine/taurus"
	"github.com/disagglab/disagg/internal/heap"
	"github.com/disagglab/disagg/internal/sim"
)

// rosterEntry is one architecture: its name and a builder of a fresh
// engine on a substrate config and a table layout.
type rosterEntry struct {
	name  string
	build drill.Builder
}

// roster is the ten engines on one configuration: 1024-page compute caches
// (legobase and serverless: 64 local and 4096 remote pages, serverless on
// two compute nodes), aurora with one read replica, socrates with two page
// servers, taurus with three page stores and shared-nothing with four
// partitions.
var roster = []rosterEntry{
	{"monolithic", func(cfg *sim.Config, l heap.Layout) engine.Engine { return monolithic.New(cfg, l, 1024) }},
	{"shared-nothing", func(cfg *sim.Config, l heap.Layout) engine.Engine { return sharednothing.New(cfg, l, 4) }},
	{"aurora", func(cfg *sim.Config, l heap.Layout) engine.Engine { return aurora.New(cfg, l, 1024, 1) }},
	{"socrates", func(cfg *sim.Config, l heap.Layout) engine.Engine { return socrates.New(cfg, l, 1024, 2) }},
	{"taurus", func(cfg *sim.Config, l heap.Layout) engine.Engine { return taurus.New(cfg, l, 1024, 3) }},
	{"polardb", func(cfg *sim.Config, l heap.Layout) engine.Engine { return polardb.New(cfg, l, 1024) }},
	{"legobase", func(cfg *sim.Config, l heap.Layout) engine.Engine { return legobase.New(cfg, l, 64, 4096) }},
	{"pilotdb", func(cfg *sim.Config, l heap.Layout) engine.Engine { return pilotdb.New(cfg, l, 1024, pilotdb.Pilot()) }},
	{"snowflake-kv", func(cfg *sim.Config, l heap.Layout) engine.Engine { return snowflake.NewKV(cfg, l) }},
	{"serverless", func(cfg *sim.Config, l heap.Layout) engine.Engine { return serverless.New(cfg, l, 2, 64, 4096) }},
}

// groupCommitters names the roster's group-commit engines.
var groupCommitters = []string{"aurora", "socrates", "taurus", "polardb"}

// quietEngines returns the roster's entries named names, in that order,
// building engines with background page work (socrates' snapshots, taurus's
// gossip, polardb's and legobase's checkpoints) off.
func quietEngines(names ...string) []rosterEntry {
	picked := make([]rosterEntry, len(names))
	for i, name := range names {
		ent := roster[slices.IndexFunc(roster, func(r rosterEntry) bool { return r.name == name })]
		build := ent.build
		ent.build = func(cfg *sim.Config, l heap.Layout) engine.Engine {
			e := build(cfg, l)
			switch e := e.(type) {
			case *socrates.Engine:
				e.SnapshotEvery = 0
			case *taurus.Engine:
				e.GossipEvery = 0
			case *polardb.Engine:
				e.CheckpointEvery = 0
			case *legobase.Engine:
				e.CheckpointRemoteEvery, e.CheckpointStorageEvery = 0, 0
			}
			return e
		}
		picked[i] = ent
	}
	return picked
}
