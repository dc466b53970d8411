package lint

// Config scopes the checks to the repo's contracts. Everything is data so a
// later PR widens a contract by editing a table, not a check. Paths are
// module-relative, slash-separated directory prefixes; matching is on path
// segment boundaries.
type Config struct {
	// ModulePath is the module's import path (go.mod `module` directive).
	ModulePath string

	// MapRangePkgs are the deterministic engine packages where map-range
	// loops that feed observable state must iterate sorted keys.
	MapRangePkgs []string
	// SendMethods are method names that emit messages; calling one under map
	// iteration order is a maprange violation.
	SendMethods []string

	// WallclockPkgs are the packages where the simulated cost model is the
	// only clock: reading the wall clock there either perturbs results or
	// (worse) silently replaces metered cost with host timing.
	WallclockPkgs []string
	// WallclockAllowFiles exempts files whose base name contains one of
	// these substrings (benchmark drivers and observability exporters may
	// read the host clock).
	WallclockAllowFiles []string
	// WallclockDenied are the functions of package time that constitute a
	// wall-clock dependency.
	WallclockDenied []string

	// RandPkgs are import paths whose package-level functions draw from a
	// process-global RNG; RandDenied are those functions. Constructors
	// (New, NewSource, NewZipf, …) stay legal — injecting a seeded
	// *rand.Rand is the contract.
	RandPkgs    []string
	RandDenied  []string
	RandScope   []string // packages the globalrand check covers
	GoScope     []string // packages the nakedgo check covers
	GoAllowed   []string // packages that own concurrency (runtime + kernels)
	PanicScope  []string // packages the panicpolicy check covers
	PanicExempt []string // shape-validation packages allowed to panic

	// HotPathRoots are call-graph function IDs (see callgraph.go:
	// "internal/cluster.(*Outbox).Send") declared allocation-free: hotalloc
	// flags every allocation site reachable from them. //lint:hotpath
	// annotations add roots in-source. IDs that do not resolve in the linted
	// module are skipped (the same config lints the test fixtures);
	// TestHotPathRootsResolve pins that every entry resolves in the real
	// module.
	HotPathRoots []string
	// LockOrderPkgs are the packages whose mutex acquisitions participate in
	// the lockorder partial-order analysis.
	LockOrderPkgs []string
}

// Default is the repo's contract as of PR 5. The scopes mirror DESIGN.md
// §3.9: determinism and metering bind the cluster runtime and the engines on
// top of it; RNG injection and the error contract bind all of internal/.
func Default() *Config {
	return &Config{
		ModulePath: "graphsys",

		MapRangePkgs: []string{
			"internal/cluster", "internal/pregel", "internal/blogel",
			"internal/quegel", "internal/gnndist",
			// the block cache's hit/miss/eviction counters are observable,
			// gated state — any map-ordered walk feeding them is a bug
			"internal/storage",
		},
		SendMethods: []string{
			"Send", "SendTo", "SendToNeighbors", "SendAll", "Broadcast",
			"Publish", "Emit", "Account", "AccountBatch",
		},

		WallclockPkgs: []string{
			"internal/cluster", "internal/pregel", "internal/blogel",
			"internal/quegel", "internal/gnndist", "internal/gnn",
			"internal/tensor", "internal/gthinkerq", "internal/tthinker",
			// the serving tier meters latency through an injected serve.Clock;
			// the single annotated wall-clock read lives in serve.WallClock
			"internal/serve",
			// experiment tables are committed artifacts (EXPERIMENTS.md) and
			// must be byte-identical run to run — wall time is banned outright
			"internal/experiments",
			// the storage layer's I/O meters are deterministic functions of
			// the access sequence; wall time has no business in them
			"internal/storage",
		},
		WallclockAllowFiles: []string{"_bench", "bench_"},
		WallclockDenied: []string{
			"Now", "Since", "Until", "Sleep", "After", "AfterFunc",
			"NewTimer", "NewTicker", "Tick",
		},

		RandPkgs: []string{"math/rand", "math/rand/v2"},
		RandDenied: []string{
			"Int", "Intn", "Int31", "Int31n", "Int63", "Int63n", "IntN",
			"Int32", "Int32N", "Int64", "Int64N", "N", "Uint32", "Uint64",
			"UintN", "Uint64N", "Float32", "Float64", "ExpFloat64",
			"NormFloat64", "Perm", "Shuffle", "Seed", "Read",
		},
		RandScope: []string{"internal"},

		GoScope: []string{"internal"},
		// serve owns the serving tier's concurrency: the Pool's worker pool
		// and the Batcher's serving loop, both joined in Close.
		GoAllowed: []string{"internal/cluster", "internal/tensor", "internal/serve"},

		// PanicScope "internal" covers the serving tier (internal/serve,
		// internal/gthinkerq, internal/quegel): engines return typed errors
		// (serve.ErrQueueFull et al.), never panic.
		PanicScope:  []string{"internal"},
		PanicExempt: []string{"internal/tensor", "internal/nn"},

		// The declared zero-alloc hot paths, mirroring the dynamic gates:
		// the Gang dispatch + worker loop, the vertex-to-slot send and the
		// lane send feed TestSteadyStateAllocsPerRound, the cache-hit path feeds
		// TestHitPathZeroAllocs, and the serve pick paths are
		// the per-task scheduler inner loops. The pregel superstep closures
		// (computePhase/demuxPhase) are rooted in-source via //lint:hotpath.
		HotPathRoots: []string{
			"internal/cluster.(*Gang).Run",
			"internal/cluster.(*Gang).worker",
			"internal/cluster.(*Outbox).Send",
			"internal/cluster.(*Outbox).SendSlot",
			"internal/pregel.(*Context).Send",
			"internal/pregel.(*delivery).scatter",
			"internal/serve.(*Batcher).orderLocked",
			"internal/serve.(*Pool).pickLocked",
			"internal/serve.(*Pool).take",
			"internal/storage.(*CachedSource).Neighbors",
		},
		LockOrderPkgs: []string{
			"internal/cluster", "internal/serve", "internal/storage",
		},
	}
}
