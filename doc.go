// Package sinrmac is a simulation-backed reproduction of "A Local Broadcast
// Layer for the SINR Network Model" (Halldórsson, Holzer, Lynch; PODC
// 2015).
//
// The implementation lives under internal/: the SINR physical model and
// slotted simulator (internal/sinr, internal/sim), the abstract MAC layer
// specification and checker (internal/core), the acknowledgment and
// approximate-progress algorithms (internal/hmbcast, internal/approgress),
// the combined MAC of Algorithm 11.1 (internal/mac), the higher-level
// broadcast and consensus protocols (internal/bcastproto,
// internal/consensus) and the experiment harness that regenerates the
// paper's tables and figures (internal/exp).
//
// Every MAC endpoint is one type, macnode.Node: the absMAC contract (bcast,
// rcv, ack and abort with one outstanding broadcast per node, rcv
// deduplication and the recorded event trace) lives there once, over a
// per-node macnode.Automaton that receives the engine slot at every entry
// point. hmbcast.New, decay.New and approgress.NewNode (whose automaton
// acknowledges on a timer) wrap a single algorithm; mac.New wraps an
// automaton that runs hmbcast in even slots and approgress in odd ones and
// routes received frames to their owner by kind.
//
// The per-event bookkeeping goes through no runtime map and never copies a
// growing trace. A node deduplicates rcvs through a flat set of message ids (open
// addressing over a power-of-two table, linear probing, grown at half load;
// id 0 is a flag beside the table), and Init empties it with the
// outstanding broadcast, so an engine Reset replays the execution. The
// core.Recorder appends into blocks that double from 64 events up to 4096,
// and Events copies them once; it sorts only when some event came in below
// its predecessor's slot, which no engine-driven trace does, since every
// event of slot s is recorded while slot s runs. The checkers' progress
// index groups rcvs by receiver and stamps each receiver's G-neighbourhood
// once rather than searching an adjacency list per rcv. On sinrbench
// mac_dense (512 clustered nodes, about 96k events per repetition) that
// took wall time from 0.424 to 0.362 s and peak RSS from 47.1 to 35.9 MB
// (medians of ten alternating 20 s runs on a two-CPU host).
//
// # Channel evaluator architecture
//
// Slot evaluation — deciding, for a set of concurrent transmitters, which
// node decodes which frame under the SINR predicate — is the hot path every
// simulation funnels through. It is abstracted behind the
// sinr.ChannelEvaluator interface, with two implementations:
//
//   - the naive reference: sinr.Channel.SlotReceptions, a deliberately
//     simple O(n·k) scan that allocates fresh storage per slot and
//     recomputes every received power. It defines the semantics and is the
//     default path of sim.Engine.
//   - the fast engine: sinr.FastChannel, which reuses a per-channel scratch
//     arena and runs one regime at every deployment size, the cell lattice
//     (see below).
//
// The cell lattice has memory O(occupied cells + nodes) with no per-pair
// state (measured ~51 heap bytes/node at n = 10⁶ against the documented
// sinr.ShardBytesPerNodeBudget); every power is computed by the path-loss
// row kernel, one call per receiver row. The occupied-cell decomposition is
// partitioned into vertical cell-column stripes, one shard each, over a
// coarser supercell layer (8×8 cells). The stripe count is fixed at 64,
// clamped to the lattice's columns and occupied cells; it splits the work
// and is no model parameter, so no option sets it. Each shard evaluates
// its receivers against exact near-field terms plus certified remote
// aggregates.
//
// The spatial index is geom.CellIndex with cells of the culling radius,
// shared by every fork of an evaluator; its inverse map, lattice
// coordinates to cell, is a dense table over the lattice rectangle, so the
// sparse path's ball walk and the dense scan's cell cull read an array, not
// a hash map. A lattice whose per-offset tables would hold more than 16
// entries per occupied cell (sinr's boundsOffsetsPerCell) — outlier
// geometry such as clusters a thousand ranges apart, at construction or
// after churn — keeps its cells, near offsets and shard stripes but builds
// no tables, so its dense slots run the exact cell-culled scan; the cell
// index, by the same cap, keeps a map in place of its table. Memory stays
// O(occupied cells) wherever the nodes sit.
//
// The lattice replaced two regimes. A spatial grid with a clock-evicted
// per-sender power-column cache served 2048 < n ≤ 65536. Measured on a
// 2-CPU host (GOMAXPROCS = 1, one evaluator, grid → lattice), a slot with
// k = n/4 transmitters cost 7.9 → 5.4 ms at n = 4k, 141 → 64 ms at 16k and
// 1.20 → 0.88 s at 64k; a 1 % churn epoch plus one slot 17.4 → 3.1 ms,
// 239 → 40 ms and 920 → 410 ms, with no allocation on the lattice; and the
// n = 4096 end-to-end workloads ran 2.10 → 1.97 s (combined MAC) and
// 2.21 → 1.45 s (Decay) in 29.5 MB instead of 43.9 MB and 111 MB instead of
// 278 MB. The grid won only sparse slots at 4k repeating one transmitter
// set (268 vs 376 µs), which kept every column cached. An n×n
// received-power matrix served n ≤ 2048, its dense slots streaming
// receivers against the cached powers. Before the lattice computed its
// powers with one row kernel, forcing it at every size (with a dense cell
// table) ran sinrbench's mac_dense and tables 11.5 % slower. With the
// kernel, the cell index's dense table and the exact decode dividing only
// for senders stronger than every one it has rejected, ten alternating
// pairs of sinrbench `-workload all -seconds 2` (seeds 1–10, 2-CPU host,
// matrix → lattice medians) read mac_dense 0.407 → 0.392 s in 48.2 →
// 46.0 MB, a tie, and tables 0.888 → 0.997 s (+12 %, 9 of 10 pairs
// slower): the tables' small clustered deployments compute on every dense
// slot the powers the matrix looked up. That is the price of one regime,
// inside the benchmark's 25 % bound; every other workload already ran the
// lattice.
//
// Per slot, the evaluator first takes the sparse dispatch when the
// estimated transmitter-ball coverage is below the documented crossover:
// sender-centric enumeration of only the receivers inside some
// transmitter's culling ball (every other receiver provably decodes
// nothing), making sparse-slot cost output-sensitive instead of Θ(n·k).
// All-transmit slots short-circuit in O(k) (half-duplex leaves no
// listener). Dense slots take the certified pipeline when the per-slot
// cost model of sinr's prepareShard favours it — transmitters aggregate
// per cell in O(k), near cells are expanded exactly and far cells bounded
// via precomputed per-cell-offset and per-supercell-offset power bounds
// (geom.CellIndex, geom.CellOffsetDistBounds) — or the exact dense scan
// with whole cells culled otherwise.
//
// The lattice's certificate invariant makes it decision-exact: lower- and
// upper-bound interference aggregates are widened by the rounding slack
// ε_k = Θ(k)·ulp, so they conservatively bracket the floating-point
// interference sum the exact path computes in any summation order, and a
// decode/silence decision is emitted directly whenever both certificates
// agree. This is also the cross-shard invariant: a shard sums exact per-cell
// aggregates over its 3×3 supercell neighbourhood and certified
// per-supercell-offset bounds for everything remote, so no shard ever
// reads another shard's per-receiver state, yet the emitted decision is
// identical to the global exact evaluation — only receivers inside the
// resulting thin ambiguous band around β refine through the exact
// per-receiver arithmetic (measured refine rate ~5% on the canonical dense
// workload at n = 5000, reported per benchmark case; 0.0877 at n = 10⁶ with
// k = n/10 transmitters, as TestShardedMillionNodeBudget logs).
//
// Receivers are scanned by a persistent worker pool (internal/workpool)
// wired to sim.Config.Workers.
//
// The fast engine produces bit-identical Reception slices at any shard and
// worker count: culling, sparse enumeration and the certificates only skip
// work whose outcome is provably fixed, and the evaluator oracle
// (TestEvaluatorOracle and FuzzEvaluatorOracle in internal/sinr) holds it
// to that: random and planted on-threshold layouts, three path-loss
// exponents, the lattice at S ∈ {1, 4, 8, 64}, every dispatch pin, one,
// two and four workers, forks and move epochs, every slot compared with
// Channel.SlotReceptions. One level up, the engine oracle
// (TestEngineOracle and FuzzEngineOracle in internal/sim) holds every
// evaluator, shard count, dispatch pin,
// worker count, fault plan, move-epoch sequence and Step/Run use to the
// naive evaluator under a serial Step loop: per-slot receptions, engine
// and fault stats and per-node traffic must match bit for bit.
// Drivers select a path explicitly via sim.Config.Evaluator; the
// experiment harness (internal/exp), cmd/macbench and cmd/sinrsim use the
// fast engine, while unit tests exercising channel semantics keep the
// reference path.
//
// # Frame lifecycle
//
// The steady-state slot path allocates nothing. sim.Engine owns one pooled
// frame per node and hands node i its frame on every Tick; a transmitting
// node fills the frame and returns true, and receivers are handed a
// pointer to that same frame. Frame kinds are interned integers
// (sim.RegisterFrameKind, registered once per protocol at package init),
// the common bcast-message payload travels in the typed Frame.Msg slot,
// and the approximate-progress control payloads are pointers into
// per-automaton scratch. Two rules follow: a pooled frame and its payload
// are valid only until the end of the slot (nodes and observers that
// retain payload data must copy it — the spec recorder and checker are
// unaffected because they only see copied core.Event values), and frame
// fields are not cleared between slots, so receivers read only the fields
// their Kind defines. The engine has one serial slot loop: tick and
// receive run on the calling goroutine in node order, and the engine reads
// no wall clock. Only the fast evaluator's receiver scan splits across
// sim.Config.Workers pool workers, bit-identically at any count. A fused
// parallel driver that also split tick and receive across the pool was
// measured on the real stack at GOMAXPROCS = 2 and won no workload by the
// 9-of-10 pair rule, so it was deleted. TestEngineStepAllocFree asserts
// zero allocations per steady-state Engine.Step at one and four evaluator
// workers.
//
// Path-loss arithmetic is pow-free on the hot paths: integer exponents
// α ∈ {3, 4} evaluate by multiplication, bit-identical to math.Pow
// (internal/sinr's kernel differential tests pin this), and sparse/bounds
// threshold comparisons stay in the squared-distance domain.
//
// # Static invariants (sinrlint)
//
// The invariants above are dynamic contracts: the differential suites
// assert bit-identity on the topologies they draw, the alloc gates on the
// workloads they run. cmd/sinrlint (internal/analysis) is the static side
// of the same contracts — a suite of go/analysis-style analyzers that
// reject the constructs which break them, in any code path, before a test
// ever executes. It runs standalone (`go run ./cmd/sinrlint ./...`) and as
// a `go vet -vettool`, and CI enforces it on every push. Five analyzers:
//
//   - detrand: no math/rand (or crypto/rand) and no wall-clock reads
//     (time.Now, time.Since, ...) in the decision-path packages — every
//     outcome must derive from explicit seeds via internal/rng labelled
//     splits. No site in those packages needs an exception: the engine
//     reads no clock.
//   - maporder: no `for range` over a map whose body appends to a slice,
//     accumulates floating-point sums, prints, sends, emits sim.Frames or
//     draws randomness — Go's randomized map order would leak into
//     output. Collect-then-sort in the same block is recognized as safe.
//   - frameretain: no Tick/Receive body stores the engine-owned
//     *sim.Frame (or its Msg/Payload pointers) into fields, slices, maps,
//     channels or closures — the pooled frame is valid only until the end
//     of the slot; retaining a copy (*f) is the sanctioned pattern.
//   - powfree: no math.Pow or math.Hypot in internal/sinr and
//     internal/geom outside annotated reference or construction-time
//     code, pinning the pow-free kernel arithmetic.
//   - hotalloc: functions annotated //sinrlint:hotpath (the slot-path
//     chunk kernels and the protocol automata's Tick bodies) must contain
//     no allocating constructs — make/new, map/slice literals, non-self
//     append, interface boxing, capturing closures, fmt calls, string
//     concatenation.
//
// Exceptions are explicit and justified in-source: a comment
// `//sinrlint:allow <analyzer> <why>` pardons its own line and the next
// (or, in a declaration's doc comment, the whole declaration), and every
// annotation carries the argument for why the invariant is not at risk.
// The analyzers are built on a self-contained framework (internal/analysis,
// internal/analysis/driver) with analysistest-style fixture tests per
// analyzer, so the gate itself is tested code.
//
// # Execution model
//
// sim.Engine.Run(b, stop) and b calls of Step go through the same serial
// slot loop. Observers, recorders, the fault hook, stat counters and
// stop-condition polls fire between slots in exact slot order, and
// Engine.Slot reads consistently at every callback. A Run(deadline, stop)
// stop condition is polled before every slot, so a graceful shutdown
// (cmd/sinrsim's first SIGINT) lands at the next slot boundary. What a
// callback may not do is re-enter the engine: Step and Run panic from
// inside the slot loop, and ApplyEpoch/Reset return an error — state
// mutations must land between Step/Run calls. The engine oracle holds Run
// legs bit-identical to the naive Step loop across evaluators,
// worker counts, fault plans and mid-run mobility epochs.
//
// The lattice's supercell far-field sums are restructured SIMD-friendly
// without changing a single emitted bit: they process four receiver
// supercells per pass over the occupied transmitter supercells. Blocking
// is across receivers only — each receiver supercell's bound sums still
// add the same terms in the same order with one accumulator, so the float
// result is bit-identical to the scalar loop (remainder lanes run the
// scalar code); what the restructuring buys is four independent FP add
// chains instead of one loop-carried one, and the k·ulp certificate slack
// is computed exactly as before.
//
// The protocol automata ticked inside a slot resolve their schedules once,
// in NewAutomaton: approgress its block boundaries, phase and epoch
// lengths and data-block probability P/Q; hmbcast Ñ, its halt budget and
// fall-back threshold; decay its phase length and acknowledgment phase
// count. Tick and Receive read plain fields, and the Tick bodies are
// //sinrlint:hotpath. The exported Config methods (EpochLen, PhaseLen, T,
// Q, HaltBudget, ...) derive the same constants from scratch, with
// logarithms and powers, on every call: they serve construction, deadlines
// and reports, not per-slot use. Re-deriving them in every Tick cost 86 %
// of a combined-MAC slot at n = 4096 (sinrbench mac_uniform, two-CPU host).
//
// approgress's Tick also never divides, and allocates only while a phase
// sender's state grows. Its automaton moves a cursor through the schedule
// (phase, slot in the phase, MIS round, slot in the round) by one slot per
// Tick, and keeps its per-phase state in four slices that only phase
// senders fill: the ids heard in discovery, one (sender, named-this-node)
// pair per confirmation list, the sorted potential neighbours and the
// sorted H̃̃ neighbours with their MIS round's label, state and heard flag.
// Every phase start truncates them, keeping their capacity. Per-phase maps
// made for every node, sender or not, four per phase and one more per MIS
// round, cost more: on sinrbench mac_uniform (409 of 4096 nodes
// broadcasting) the slices took allocations from 57 to 8.5 per slot and
// peak RSS from 18.3 to 16.0 MB (medians of ten alternating 20 s runs on a
// two-CPU host).
//
// # Dynamic deployments
//
// Churn is mobility: nodes move, and the node set stays fixed, as in the
// paper's model. topology.Deployment batches MoveNode calls into epochs
// that CommitEpoch applies atomically — revalidating the unit-distance
// invariant (a rejected epoch leaves the deployment untouched),
// invalidating every cached derived quantity (strong/approximation/weak
// graphs, Λ) and returning a sinr.EpochDelta that owns the post-epoch
// positions and lists the nodes that moved. Node ids never change.
//
// Applying a delta to a live evaluator is incremental:
// sinr.FastChannel.ApplyEpoch re-buckets the shared cell index in place
// (geom.CellIndex.ApplyChurn, O(n + occupied cells) — the lattice's
// per-offset power tables survive unchanged since they depend only on the
// lattice span; only a node leaving the lattice rebuilds the index). The patch is
// held to the naive channel over the moved positions by the evaluator
// oracle's epoch rows (storm epochs that move half the nodes, moves across
// every stripe and out of the lattice included), and the steady-state apply
// path of a mobility cycle performs zero heap allocations
// (TestChurnApplyAllocFree, the churn_lattice macbench case). Applying an epoch is stop-the-world for an evaluator fork family.
//
// One level up, sim.Engine.ApplyEpoch applies a delta between slots; every
// node automaton keeps its id and its protocol state. Experiment E8-churn
// (internal/exp) sweeps a per-slot mobility churn rate under the combined
// MAC and reports global broadcast latency against the static baseline on
// the same topology draw.
//
// # Fault model
//
// The simulator injects failures without giving up determinism: a
// fault.Plan (crash-stop and crash-recover schedules, per-slot jammers,
// frame drop/corruption, Byzantine spam and equivocation) compiles into a
// fault.Injector wired into the engine as sim.Config.Faults. Every
// stochastic fault decision draws from labelled rng streams derived from
// the plan seed alone (fault/plan/{crash,jam,deliver,byz}), and the engine
// consults the hook on the driving goroutine in slot order, so a faulty
// execution is bit-identical at any evaluator worker count and shard count (the
// engine oracle's fault rows). A zero-rate plan consumes no randomness,
// leaving the execution bit-identical to running with no hook installed — and nearly free, which the
// engine_step_faults macbench case gates at ≤ 1.05× the hook-free step.
//
// The fault classes differ in what they may touch. Crashed nodes are inert:
// their Tick is skipped, their frames are withheld and their inbound
// receptions scrubbed, without perturbing survivors' streams; crash-recover
// schedules resume the same automaton with its state intact. Jammers are
// extra transmitters injected into the slot's transmit set before SINR
// evaluation, so they degrade the channel physically rather than by fiat
// (their own decodes are scrubbed and they are excluded from traffic
// stats). Drops and corruption act per (receiver, slot) on delivered
// frames; corrupted frames keep their kind but carry a poisoned message ID
// and nil payload. Byzantine nodes are wrapped automata
// (fault.Injector.WrapNodes) that may spam noise frames or mutate their
// own outgoing frames — but the engine overwrites the link-layer sender
// after Tick, so even a Byzantine node cannot forge Frame.From. A panic in
// any node's Tick or Receive is recovered, recorded
// (fault.Injector.Panics) and converted into a crash-stop of that node
// alone; the run completes and the rest of the execution is unperturbed.
//
// Degradation is measured, not assumed: core.CheckDeadlines turns recorder
// events into per-run acknowledgment/progress deadline-violation counts
// (censoring in-flight windows at the horizon), consensus.CheckFaulty
// verifies agreement and validity over the correct nodes only, and
// experiment E10-fault sweeps crash rate, jammer count and Byzantine
// fraction against those checkers — asserting in-run that the zero-fault
// control row stays clean.
//
// # Parallel experiment scheduler
//
// The experiment harness (internal/exp) runs every sweep as a grid of
// (point × trial) jobs fanned across a bounded worker pool, with a
// determinism contract: the emitted tables are bit-identical at every
// worker count. Two mechanisms make that hold:
//
//   - Label-derived seeding. Every random stream is a pure function of
//     (Config.Seed, experiment, point, trial), derived with
//     rng.Source.SplitLabeled chains (rng.Label hashes the experiment
//     name) instead of loop-carried seeds, so no stream depends on
//     scheduling order. Results are merged into canonical [point][trial]
//     order before any aggregation.
//   - Fixed-cost reuse. Each sweep point's deployment — with its strong
//     graph, Λ and the fast evaluator's cell index and tables — is built
//     once and shared by all trials (topology.Deployment caches the
//     derived quantities; sinr.FastChannel.Fork shares the immutable index
//     with private scratch). Each worker keeps one engine per point and rewinds
//     it with sim.Engine.Reset instead of reallocating.
//
// TestParallelTablesBitIdentical asserts the contract differentially
// (1 worker vs 8), and BenchmarkSuiteQuick times the full experiment suite
// at both worker counts; cmd/experiments exposes the pool via -workers.
//
// Runnable entry points are provided under cmd/ and examples/; each
// measurement has one home. cmd/experiments regenerates every table and
// figure, cmd/sinrbench times the paper's stack and every experiment
// runner end to end, and the top-level bench_test.go holds
// BenchmarkSuiteQuick alone. cmd/macbench times the slot pipeline kernel
// by kernel — naive vs fast, sparse vs dense, bounds vs dense with the
// refine rate, the cell lattice at n = 100k (and 10⁶ behind -large) with
// its heap footprint, churn apply vs rebuild,
// steady-state Engine.Step, the zero-fault hook and the pow-free path-loss
// kernel vs math.Pow — and writes one {name, params, metrics} record per
// case to BENCH_macbench.json, stamped with GOMAXPROCS, NumCPU and the Go
// version. Most cases pair a reference side against an optimised side and
// record the speedup. Within every run it gates, on per-side minima over a
// few interleaved rounds, that the all-transmit bounds_full case stays at
// ≥ 0.95× the pinned dense scan, that the zero-fault hook costs at most
// 1.05× and that every integer-α kernel beats math.Pow; the steady-state
// Engine.Step rows must allocate nothing, and the shard cases must stay
// inside sinr.ShardBytesPerNodeBudget. cmd/macbench -compare FILE
// additionally fails on gross (beyond 2×) speedup regressions, new
// allocations or missing cases against a committed baseline. The committed baseline was measured on a single-CPU runner; the
// gates judge only within-run ratios, which travel across hosts. CI runs
// that gate on every push, renders the per-case table into the job summary
// and uploads the fresh report as an artifact; end-to-end timing of the
// paper's stack lives in cmd/sinrbench. cmd/macbench -cpuprofile and
// -memprofile capture pprof profiles from the same binary the gate runs.
package sinrmac
