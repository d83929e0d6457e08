(** The sampling-based baselines of Section 3.2.2: naive Monte Carlo
    ("Sampling(MC)") and Horvitz–Thompson ("Sampling(HT)", the
    unequal-probability estimator of Jin et al. used by the paper).

    Both sample [s] possible graphs by flipping every edge independently
    and testing terminal connectivity with a reused union–find —
    [O(s * (|V| + |E|))], the complexity quoted in the paper.

    {2 One chunk loop, parallel execution and determinism}

    Every sampler draws through one chunk loop, {!Chunked}: a run is a
    sequence of rounds, each split into chunks of
    {!chunk_target_for}[ ~edges] samples (a pure function of the edge
    count). Chunk [i] always draws from the [i]-th {!Prng.split} stream
    of the master seed and partial results are folded in chunk order. A
    fixed-budget run ({!monte_carlo}, {!horvitz_thompson}) is a
    one-round {!Chunked} run; sequential stopping ({!Adaptive}) runs
    several. The [jobs] argument only selects how many domains execute
    the chunks: {b for a fixed [seed] and round schedule the returned
    estimate is bit-identical at every [jobs] value} (including the
    sequential [jobs = 1] fast path, which runs the same chunked code
    on the calling domain). Each domain draws through the flat sampling
    kernel ({!Kernel}): a CSR snapshot of the graph plus one reusable
    per-domain scratch holding the drawn-present buffer, the packed mask
    words, and the early-exit union–find. The kernel consumes the exact
    same Prng stream in the exact same order as the retained
    {!Reference} implementations, so moving the hot loops onto it
    changed throughput, not results.

    {2 Instrumentation}

    Both samplers accept an {!Obs.t} and record under the ["sampling"]
    prefix: counters [samples], [hits], [connectivity_checks] (and, for
    HT, [distinct] plus a [dedup_ratio] gauge), per-chunk spans on the
    [chunk] timer, a [total] timer, and for HT a [merge] timer around
    the ordered table merge. [total] and HT's once-per-run [hits],
    [distinct] and [connectivity_checks] are fixed-budget only: a
    {!Chunked} stream counts MC [hits] per round and leaves HT's to its
    caller. The kernel fast path additionally records a
    [kernel.samples] counter and a [kernel.elapsed] timer (the summed
    monotonic wall-clock of the parallel sampling region; [0.] under a
    fake clock) from which the report layer derives
    [kernel.samples_per_sec] — the throughput figure is computed at
    report time, never stored mid-run. Per-chunk latency, early-exit
    union depth and (for HT) dedup-table occupancy additionally land in
    [hist.chunk_ns], [hist.early_exit_depth] and [hist.dedup_occupancy]
    histograms, and each chunk's [Gc.quick_stat] delta accumulates
    under [gc.*]. They also accept a {!Trace.t} and stream
    one [mc.chunk] / [ht.chunk] span per chunk (recorded into a
    per-task buffer on lane [chunk mod jobs] and merged back in chunk
    order, per the {!Trace} lane contract; HT chunks carry
    [unique]/[drawn] dedup args), an [ht.merge] span around the ordered
    table merge, and a final [estimate] instant with
    [value]/[lower]/[upper]/[samples] args (the 95% Wilson interval of
    {!interval}). Timings are measured but results are unchanged:
    instrumentation never touches the sampling streams. *)

type estimate = {
  value : float;          (** estimated network reliability *)
  samples_used : int;     (** samples drawn ([0] for the trivial
                              [k < 2] answer, which draws nothing) *)
  hits : int;             (** samples in which the terminals connect;
                              for HT, counted over distinct samples *)
  distinct : int;
      (** distinct possible graphs among the samples. {b HT only}: MC
          never deduplicates and reports [0] here rather than guess *)
  variance_estimate : float;
      (** plug-in variance: Equation (2) for MC, Equation (8) for HT.
          The HT plug-in can come out negative (its correction term is
          itself an estimate); it is clamped to [0.] here, and each
          clamping is counted under the [sampling.variance_clamped]
          Obs counter (raw value in the [sampling.raw_variance] gauge) *)
  jobs_used : int;
      (** domains the sampler was allowed to use (after the
          [NETREL_FORCE_DOMAINS] override); does not affect results *)
  chunk_samples : int array;
      (** per-chunk sample allocation, fixed by [samples] alone —
          the work units distributed over the domain pool ([[||]] for
          the trivial [k < 2] answer) *)
}

type kernel_mode =
  | Flat  (** scalar draw: one [Prng.bernoulli] per edge per sample —
              the pre-kernel stream, bit-identical to {!Reference} *)
  | Bitsliced
      (** word-parallel draw: 62 worlds per {!Prng.Bitbatch.draw} pass
          through [Kernel.draw_bitsliced] *)
(** Which draw kernel the samplers run on (default {!Flat}). Each mode
    is bit-identical to itself at every [jobs] value, but the modes
    consume the per-chunk streams differently: for the same seed they
    sample {e different} possible graphs, so estimates agree
    statistically (same distribution, checked by the selfcheck oracle
    and calibration sweeps), never bitwise across modes. *)

val kernel_mode_name : kernel_mode -> string
(** ["flat"] / ["bitsliced"] — the [sampling.kernel.mode] Obs text, the
    CLI [--kernel] and query-line [kernel=] spelling. *)

val kernel_modes : kernel_mode list
(** Every mode, in {!kernel_mode_name} order: the spelling table. *)

val kernel_mode_of_name : string -> kernel_mode option
(** Inverse of {!kernel_mode_name}, case-insensitive. *)

val chunk_target : int
(** Samples per chunk (4096) on graphs of up to 32768 edges — see
    {!chunk_target_for}. Sequential stopping sizes its first round and
    its minimum progress per round in these units. *)

val chunk_target_for : edges:int -> int
(** The chunk size every sampler actually uses, as a pure function of
    the graph's edge count: {!chunk_target} up to 32768 edges (every
    built-in dataset — their seeded estimates keep the historical
    layout), then shrinking as [32768 * chunk_target / edges] (floored
    at 64) so a chunk's bernoulli-draw budget stays roughly constant
    and a small sample budget on a million-edge graph still splits
    across domains. Part of the determinism contract: depends only on
    [edges], never on [--jobs]. *)

val interval :
  ?z:float -> ?method_:Relstats.interval_method -> estimate -> float * float
(** [(lower, upper)] confidence interval for an estimate, default the
    95% Wilson score interval on [(value, samples_used)] — in contrast
    to the Wald interval implied by [variance_estimate], it keeps a
    nonzero width at [hits ∈ {0, n}] (a 0-hit run has [upper > 0]).
    [value] is clamped into [[0, 1]] first (HT can overshoot under
    sampling noise). The trivial [k < 2] estimate ([samples_used = 0])
    is exact and reports the point interval [(value, value)]. *)

val mask_hash : bool array -> int -> int
(** [mask_hash present m] is the non-negative 62-bit content hash of the
    first [m] mask bits ({!Hash64.mask}) identifying a sampled possible
    graph in the HT dedup tables. Exposed for the collision regression
    tests. *)

val ht_weight : logq:float -> n:int -> float
(** The Horvitz–Thompson weight [q / pi] with [pi = 1 - (1 - q)^n],
    computed stably from [logq = ln q] (so probabilities far below
    float range are handled): [1/n <= ht_weight ~logq ~n <= 1], tending
    to [1/n] as [q -> 0] and equal to [1] at [q = 1]. This is the
    single shared implementation used by {!horvitz_thompson} and by the
    S2BDD descent estimator. *)

val monte_carlo :
  ?obs:Obs.t -> ?trace:Trace.t -> ?seed:int -> ?jobs:int ->
  ?kernel:kernel_mode -> ?csr:Kernel.Csr.t -> Ugraph.t ->
  terminals:int list -> samples:int -> estimate
(** Plain Monte Carlo: [R^ = (1/s) * sum_i I(Gp_i, T)]. [jobs]
    (default 1) sets the domain count; see the determinism contract
    above. [kernel] (default {!Flat}) selects the draw kernel; the
    chosen mode is recorded in the [sampling.kernel.mode] Obs text.
    [csr] supplies a prebuilt {!Kernel.Csr.t} snapshot of [g] (the
    engine's per-graph cache); the Csr is a pure function of the graph,
    so passing one never changes the estimate. MC draws with
    replacement and never deduplicates, so [distinct = 0] (not
    measured). @raise Invalid_argument on invalid terminals,
    [samples <= 0], or [jobs <= 0]. *)

val horvitz_thompson :
  ?obs:Obs.t -> ?trace:Trace.t -> ?seed:int -> ?jobs:int ->
  ?kernel:kernel_mode -> ?csr:Kernel.Csr.t -> Ugraph.t ->
  terminals:int list -> samples:int -> estimate
(** Horvitz–Thompson over the distinct sampled possible graphs:
    [R^ = sum_i I * Pr[Gp_i] / pi_i] with
    [pi_i = 1 - (1 - Pr[Gp_i])^s].

    Sampled graphs are deduplicated by a 62-bit content hash of the
    edge mask ({!mask_hash}, full-avalanche packed-word mixing). A hash
    collision {e merges} the colliding masks: the later mask is treated
    as a duplicate of the earlier one, so its probability and indicator
    are dropped from the sum — a bias of order [2^-62] per sample pair,
    negligible against sampling error but not exactly zero (the hash is
    not a perfect identity). The previous per-bool FNV-1a variant made
    that bias real: its 32-bit prime only carried flipped input bits
    upward, admitting structured collision pairs (see the regression
    test), which is why it was replaced.

    Under chunking, each chunk deduplicates locally and the per-chunk
    tables are then merged in chunk order before the pi-weighted sum,
    keeping the first occurrence of every hash. Chunk order is sample
    order, so the merged table — and hence the estimate — is exactly
    what a sequential pass over all [s] samples would produce, for any
    [jobs]. Connectivity is evaluated once per chunk-distinct mask, so
    a mask sampled in two different chunks has its indicator computed
    twice (same result) but counted once.

    @raise Invalid_argument as for {!monte_carlo}. *)

val monte_carlo_csr :
  ?obs:Obs.t -> ?trace:Trace.t -> ?seed:int -> ?jobs:int ->
  ?kernel:kernel_mode -> Kernel.Csr.t ->
  terminals:int list -> samples:int -> estimate
(** {!monte_carlo} on a bare snapshot — the binary-graph fast path,
    where the Csr came from [Kernel.Csr.of_arrays] and no [Ugraph.t]
    ever existed. Terminals are validated against the snapshot's
    vertex count. For a snapshot built by [Kernel.Csr.of_graph g] the
    result is bit-identical to [monte_carlo g] (same chunk layout,
    same streams). *)

val horvitz_thompson_csr :
  ?obs:Obs.t -> ?trace:Trace.t -> ?seed:int -> ?jobs:int ->
  ?kernel:kernel_mode -> Kernel.Csr.t ->
  terminals:int list -> samples:int -> estimate
(** {!horvitz_thompson} on a bare snapshot; see {!monte_carlo_csr}. *)

(** The pre-kernel sampling paths, retained verbatim as the
    differential oracle for the flat kernels: boxed-edge iteration into
    a [bool array] mask, full-reset union–find connectivity, bool-array
    mask hashing, and the list-accumulating HT merge. Sequential, but
    chunked and split-streamed identically to the kernel path — for a
    fixed seed the estimates are bit-identical to {!monte_carlo} /
    {!horvitz_thompson} at every [jobs] value. Exercised by
    [test/test_kernel.ml], the bench [kernels] section, and the
    [netrel selfcheck] oracle sweep; not instrumented and not meant for
    production use. *)
module Reference : sig
  val monte_carlo :
    ?seed:int -> Ugraph.t -> terminals:int list -> samples:int -> estimate

  val horvitz_thompson :
    ?seed:int -> Ugraph.t -> terminals:int list -> samples:int -> estimate
end

(** The one chunk loop every sampler runs on. A stream retains the
    master generator and splits one fresh stream per chunk as rounds
    request more samples, in global chunk order; each round dispatches
    its chunks over the domain pool and folds them back in chunk order.
    A run is replayable from [(seed, round schedule)]; [jobs] only
    places chunks on domains. {!monte_carlo} / {!horvitz_thompson} are
    a single round followed by the estimate; sequential stopping
    ({!Adaptive}) draws several. The chunk {e boundaries} follow
    the round schedule rather than one balanced partition of the final
    total, so a multi-round run and a fixed-budget run of the same total
    are two different (each internally deterministic) draws.

    Drawing functions raise [Invalid_argument] on non-positive sample
    counts; [*_create] rejects invalid terminals (checked against the
    snapshot's vertex count), [jobs <= 0] and the trivial [k < 2] case
    (the caller answers it without sampling). [*_estimate] raises until
    at least one draw happened. *)
module Chunked : sig
  type mc
  type ht

  val mc_create :
    ?obs:Obs.t -> ?trace:Trace.t -> ?seed:int -> ?jobs:int ->
    ?kernel:kernel_mode -> Kernel.Csr.t -> terminals:int list -> mc

  val mc_draw : mc -> samples:int -> unit
  (** Draw one round of [samples] more samples: split into
      {!chunk_target_for}-sized chunks, each on the next stream split
      off the master, dispatched over the domain pool and folded in
      chunk order. *)

  val mc_samples : mc -> int
  val mc_hits : mc -> int

  val mc_estimate : mc -> estimate
  (** The Monte-Carlo estimate over everything drawn so far;
      [chunk_samples] records the actual chunk schedule. *)

  val ht_create :
    ?obs:Obs.t -> ?trace:Trace.t -> ?seed:int -> ?jobs:int ->
    ?kernel:kernel_mode -> Kernel.Csr.t -> terminals:int list -> ht

  val ht_draw : ht -> samples:int -> unit

  val ht_samples : ht -> int

  val ht_estimate : ht -> estimate
  (** The Horvitz–Thompson estimate over everything drawn so far. HT
      weights depend on the total sample count, so each call replays
      the ordered merge of all per-chunk dedup tables and the
      pi-weighted fold at the current total — identical to what the
      fixed-budget sampler computes for that total and schedule. *)
end
