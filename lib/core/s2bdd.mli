(** The scalable and sampling BDD (S2BDD) — Section 4 of the paper.

    The S2BDD keeps a single BDD layer plus the two sinks. Each layer is
    built from the previous by the four procedures of Section 4.3:

    - {e generating}: both edge decisions are expanded for every node,
      with the early connect/disconnect conditions of Lemmas 4.1–4.2
      routing mass to the sinks ([pc] and [pd]) as soon as possible;
    - {e merging}: nodes whose component partition and per-component
      terminal {e flags} coincide are merged (Lemma 4.3) — coarser than
      the classical exact-count merge, and still exact;
    - {e deleting}: when a layer exceeds the width cap [w], the
      lowest-priority nodes under the heuristic
      [h(n) = p_n * max_f (t_{n,f}/k, 1/d_{n,f})] (Equation 10) are
      deleted;
    - {e sampling}: deleted nodes are sampled immediately by
      dynamic-programming descent (the node's frontier state is a
      sufficient statistic, so possible graphs are completed by flipping
      only the remaining edges), with per-node allocations
      [~ s' * p_n] under randomised rounding.

    The estimator is exactly unbiased: a node deleted when the current
    reduced budget was [s'] contributes
    [(N_n / s'_n) * R^_n] with [E[N_n] = s'_n * p_n], so the expectation
    telescopes to the true residual mass regardless of when nodes were
    deleted or how [s'] evolved. [R^_n] is the within-node Monte Carlo
    mean or Horvitz–Thompson sum, per {!estimator}.

    When the construction finishes with no deletions, the result is the
    {e exact} reliability ([exact = true]), which plain sampling can
    never deliver.

    {b One construction, three consumers.} {!estimate}, {!prepare} and
    {!bounds} run one private construction entry (validation, the
    trivial answers, edge order, frontier context, construction stream,
    GC-accounted construction). They differ only in what they keep of
    each deleted or leftover node: {!estimate} keeps a stratum with its
    descent count and weight ([p_n], or [N_n / s'] in the
    randomised-rounding tail); {!prepare} keeps a stratum for every
    node and leaves the budgets to its caller; {!bounds} keeps nothing.
    The construction never reads what a consumer kept, so for the same
    [config] all three build the same layers, bounds and stop.

    {b Iteration order is part of the determinism contract.} A layer
    is a hash table of merge keys ({!Bddbase.Fstate.Key_table}), and
    its iteration order decides the order in which nodes expand, how
    deletion breaks priority ties, and the order in which deleted nodes
    are consumed — which fixes each stratum's split stream and so every
    estimate. The key hash, the table size each layer is created with,
    the order of insertion and the comparisons of the deletion sort
    must therefore stay as they are; a faster layer loop has to keep
    all four, and a new layer layout would re-pin every pro answer. *)

type estimator =
  | Monte_carlo
  | Horvitz_thompson

type deletion_heuristic =
  | Paper_heuristic  (** Equation (10) priorities *)
  | Random_deletion  (** ablation: delete uniformly at random *)

type config = {
  samples : int;       (** the plain-sampling budget [s] being matched *)
  width : int;         (** maximum layer width [w] *)
  estimator : estimator;  (** within-node estimator of fixed-budget descents *)
  seed : int;          (** the construction stream; strata split from it *)
  order : [ `Auto | `Strategy of Graphalgo.Ordering.strategy | `Explicit of int array ];
      (** edge order; [`Auto] is multi-source BFS from the terminals *)
  eager : bool;        (** Lemmas 4.1–4.2 extended early sinking *)
  merge_flags : bool;  (** Lemma 4.3 flag-based merging (exact-count merge when false) *)
  heuristic : deletion_heuristic;  (** which nodes a saturated layer deletes *)
  max_work : int;
      (** hard cap on construction effort (cumulative node-state
          operations); past it the remaining mass falls back to the
          unbiased stratified sampler *)
}

val default_config : config
(** [samples = 10_000], [width = 10_000], Monte Carlo, seed 1, [`Auto]
    order, eager sinking, flag merging, paper heuristic, max_work 8e7.

    The stagnation stop is fixed, not configured: construction aborts
    ({!Stagnated}) after 50 consecutive width-saturated layers that
    each grow [pc + pd] by less than 1e-5 of the unresolved mass
    [1 - pc - pd]. *)

type stop_reason =
  | Completed    (** every layer processed *)
  | Converged
      (** residual live mass would receive under one descent: bounds are
          as tight as the budget can use *)
  | Stagnated    (** saturated layers stopped improving the bounds *)
  | Work_capped  (** construction effort budget exhausted *)

val stop_reason_name : stop_reason -> string

type result = {
  value : float;
      (** estimated (or exact) reliability, always clamped into
          [[lower, upper]] — the raw (possibly overshooting) stratified
          contribution is recorded under the [sampling.contribution] /
          [sampling.raw_value] Obs gauges, with [sampling.value_clamped]
          counting the runs where the clamp actually bound *)
  lower : float;        (** [pc]: proven lower bound *)
  upper : float;
      (** [1 - pd]: proven upper bound; rounded up to [lower] when the
          two independently rounded floats would cross by an ulp (fully
          resolved runs), so [lower <= upper] always holds *)
  pc : Xprob.t;
  pd : Xprob.t;
  exact : bool;         (** no mass was left to sampling *)
  s_given : int;
  s_reduced : int;
      (** final Theorem-1 budget [s'] at the achieved bounds — reported
          even when [exact] (where it went unused; see
          {!Reliability.report} whose [s_reduced] is [0] in that case) *)
  samples_drawn : int;  (** descents actually performed *)
  sampled_nodes : int;  (** deleted/leftover nodes that received samples *)
  deleted_nodes : int;
  layers_built : int;
  max_width : int;      (** widest layer constructed (post-merge) *)
  peak_state_words : int;
      (** resident S2BDD memory proxy: the largest total state-word
          footprint of any single layer (the S2BDD keeps one layer) *)
  aborted : bool;       (** construction stopped before the final layer *)
  stop : stop_reason;
}

val estimate :
  ?jobs:int -> ?obs:Obs.t -> ?trace:Trace.t -> ?config:config ->
  Ugraph.t -> terminals:int list -> result
(** Estimate [R[G, T]] with an S2BDD over the graph as given (no
    extension technique; see {!Reliability.estimate} for the full
    Algorithm 1). Handles [k < 2] and topologically separated terminals
    without construction.

    [obs] (default {!Obs.disabled}) records the construction account
    under ["construction"] — per-layer [width]/[pc]/[pd] series, the
    [merges]/[layers]/[work]/[deleted_nodes]/[sampled_nodes] counters,
    [max_width]/[peak_state_words]/[s_reduced] gauges, the [stop]
    reason and a [build] timer — and the stratified descents under
    ["sampling"] ([descent_tasks], [samples], per-task [descent] spans,
    the [estimator] text). Instrumentation never touches the random
    streams: results are bit-identical with and without [obs]. The
    observer must be owned by the calling thread; descent tasks only
    measure durations locally and the caller records them in task
    order.

    [trace] (default {!Trace.disabled}) streams the time-domain view:
    one [layer] span per layer (args [layer]/[width]/[pc]/[pd]/
    [deleted]) plus a [width] counter, a [construction] span over the
    whole loop carrying the stop reason, and one [descent] span per
    stratified task, recorded into per-task buffers on lane
    [task mod lanes] ([lanes] = {!Par.effective_jobs}[ jobs]) and
    merged back in consumption order — the trace stream, like the
    result, is jobs-independent in content.

    [jobs] (default 1) sets how many domains run the stratified DP
    descents of deleted and leftover nodes ({!Par.run}): construction
    stays sequential (each layer depends on the previous), but every
    sampled node's descents are an independent task recorded in
    consumption order and executed after construction. Each task draws
    from its own {!Prng.split} stream assigned at enqueue time and the
    per-task contributions fold in consumption order, so the result is
    {b bit-identical} at every [jobs] value. *)

val bounds : ?config:config -> Ugraph.t -> terminals:int list -> result
(** The construction of {!estimate} alone, under the same [config]:
    the same layers, deletions and stop, hence the same proven
    [lower]/[upper] and construction fields, with no descents drawn
    ([samples_drawn = sampled_nodes = 0]; [value = lower]). Deleted
    nodes are dropped instead of kept. [config.samples] still sets the
    Theorem-1 budget behind the convergence stop.
    @raise Invalid_argument as {!estimate}. *)

(** {2 Adaptive sampling plans}

    The sequential-stopping driver ({!Adaptive}) cannot use {!estimate}
    directly: the fixed path allocates every node's descent budget at
    deletion time. [prepare] runs the {e same} construction (same
    config, same heuristic draws, same stop rules) but records each
    deleted/leftover node as a {e stratum} — mass, frontier state,
    descent layer and a private {!Prng.split} stream — and leaves all
    budget decisions to the caller, who draws between rounds with
    {!draw_stratum} (Neyman re-allocation lives in the driver).

    Determinism: a stratum's stream is private and advanced
    sequentially, so its [(drawn, hits)] counters after a total of [n]
    draws do not depend on the round schedule that reached [n], nor on
    which domain ran the rounds. Distinct strata may be drawn
    concurrently; the same stratum must never be drawn from two domains
    at once. *)

type plan
(** A prepared construction with unresolved mass: proven bounds plus
    the strata awaiting samples. *)

type prepared =
  | Exact of result
      (** trivial input, or the construction resolved every node — the
          answer is exact and nothing needs sampling *)
  | Sampling of plan

val prepare :
  ?obs:Obs.t -> ?trace:Trace.t -> ?config:config ->
  Ugraph.t -> terminals:int list -> prepared
(** Run the construction and return the sampling plan (or the exact
    answer). [config.samples] still seeds the Theorem-1 budget reduction
    that drives the convergence stop rule; it does not allocate any
    descents. Obs/trace instrumentation matches {!estimate}'s
    construction phase. @raise Invalid_argument as {!estimate}. *)

val plan_bounds : plan -> float * float
(** [(lower, upper)] proven bounds [pc, 1 - pd] (same ulp guard as
    {!result.upper}). The gap is the mass the strata carry. *)

val n_strata : plan -> int
(** At least [1]. *)

val stratum_mass : plan -> int -> float

val stratum_pos : plan -> int -> int
(** The layer stratum [i]'s descents start at: the position after the
    layer that deleted the node, or the abort position for a leftover
    node. *)

val stratum_drawn : plan -> int -> int
val stratum_hits : plan -> int -> int

val draw_stratum : plan -> int -> n:int -> unit
(** [draw_stratum p i ~n] performs [n] more Monte-Carlo DP descents
    from stratum [i]'s frontier state and folds them into its counters.
    Adaptive descents always use the plain MC indicator — the HT
    within-node deduplication needs the node's final sample total up
    front, which sequential stopping cannot know.
    @raise Invalid_argument when [n <= 0]. *)
