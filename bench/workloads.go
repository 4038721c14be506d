package main

// opClass is one of the two request classes a workload mixes.
type opClass int

const (
	classQuery opClass = iota
	classUpdate
)

func (c opClass) String() string {
	if c == classUpdate {
		return "update"
	}
	return "query"
}

// spec is one named traffic mix together with the daemon shape it runs
// against. Every workload uses dataset imdb and 2 closed-loop clients.
type spec struct {
	Name string
	// Why records what the workload stresses and what it bypasses, so a
	// later change can name the row it should move and the rows that must
	// hold still.
	Why string
	// Scale is the imdb |G| scale factor.
	Scale float64
	// ReadPct is the share of ops that are /query.
	ReadPct float64
	// ZipfS skews write endpoints; 0 is uniform.
	ZipfS float64
	// Durable attaches a WAL with fsync on. Mutable enables /update.
	Durable bool
	// Shards > 1 runs the sharded router (shard.Create).
	Shards int
	// CacheSize is server.Config.CacheSize: -1 off, 512 the default.
	CacheSize int
	// Primary is the op class whose round trip the gated latency metrics
	// report: the majority class, and for the 50/50 sharded mix the
	// update (its reads are priced against read.cold by ops_per_s).
	Primary opClass
}

func (s spec) mutable() bool { return s.ReadPct < 1 }

// workloads is the benchmark's fixed workload table; BENCHMARK.json lists
// the same names.
var workloads = []spec{
	{
		Name:      "read.cold",
		Why:       "100% bounded reads, immutable unsharded store, result cache off: all time is pattern/core/access/match/runtime/server codec; store commit, wal, shard and the cache do nothing",
		Scale:     1,
		ReadPct:   1,
		CacheSize: -1,
		Primary:   classQuery,
	},
	{
		Name:      "read.cold.x4",
		Why:       "read.cold at 4x |G| with the same pattern texts: the paper's claim that a bounded query costs the same whatever |G| is, as one pair of rows",
		Scale:     4,
		ReadPct:   1,
		CacheSize: -1,
		Primary:   classQuery,
	},
	{
		Name:      "write.durable",
		Why:       "100% writes, unsharded store with WAL and fsync on: all time is delta JSON, group commit, index maintenance, wal append+fsync, Frozen refresh; core and match do nothing, so every read-path change must leave it still",
		Scale:     1,
		ReadPct:   0,
		Durable:   true,
		CacheSize: -1,
		Primary:   classUpdate,
	},
	{
		Name:      "mixed.cached",
		Why:       "95% reads / 5% zipf writes, durable, result cache on: most reads are cache hits kept alive by delta-intersection revalidation, so HTTP/JSON, LRU and footprint checks dominate while writes run beside them",
		Scale:     1,
		ReadPct:   0.95,
		ZipfS:     1.2,
		Durable:   true,
		CacheSize: 512,
		Primary:   classQuery,
	},
	{
		Name:      "mixed.shards2",
		Why:       "50% reads / 50% writes over 2 shards with per-shard WAL and fsync on, cache off: cross-shard commit, delta splitting, consistent cuts and scatter/merge fetch; prices the second backend against read.cold and write.durable",
		Scale:     1,
		ReadPct:   0.5,
		Durable:   true,
		Shards:    2,
		CacheSize: -1,
		Primary:   classUpdate,
	},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return spec{}, false
}
