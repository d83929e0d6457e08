(** Sequential stopping: estimate to a target confidence-interval width
    instead of a fixed sample budget.

    Every driver here draws in {e rounds} until the 95% interval around
    the running estimate is no wider than [ci_width] (or [max_samples]
    trips). The interval is always a valid one — Wilson score via
    {!Relstats.interval}, never the Wald interval that collapses to
    zero width at 0 or [n] hits — so stopping cannot be triggered by
    the degenerate-CI bug the fixed path used to exhibit.

    {2 One round loop}

    Plain Monte Carlo and Horvitz–Thompson on either kernel, and each
    subproblem's S2BDD plan, run one loop. It checks the width before
    every round, stops on {!Budget_exhausted} when the next round
    would be empty, and per round records its size and GC cost and
    one [adaptive.round] span. Each driver supplies its interval width
    ([infinity] before a plain sampler's first draw; a plan's proven
    [upper - lower] before its first), its next round size (0 once
    its budget is spent), and for a planned size the round it draws:
    the actual size, the draw and the span's args. A plan's outcome
    is a [result]; subproblem results multiply.

    {2 Determinism}

    Each round's size is a pure function of the account so far (hits
    and samples drawn), so the whole round schedule — and therefore the
    estimate — is replayable from [(seed, ci_width, max_samples)].
    Rounds draw through the incremental chunked samplers
    ({!Mcsampling.Chunked}) or the per-stratum plan streams
    ({!S2bdd.draw_stratum}), both of which make [jobs] placement-only:
    {b for fixed inputs the result is bit-identical at every [jobs]
    value}. Note the chunk boundaries follow the round schedule, so an
    adaptive run and a fixed-budget run of the same total are two
    different (each internally deterministic) draws.

    {2 Instrumentation}

    All drivers record under the ["adaptive"] Obs prefix: [rounds],
    [samples_planned] / [samples_used] counters, [ci_width] /
    [target_width] gauges, the [stop] reason text (plus a [stop_*]
    counter), and — for the stratified driver — per-stratum
    [stratum<i>.drawn] / [stratum<i>.mass] gauges for the first 16
    strata. Each round streams one [adaptive.round] trace span (args:
    round, planned, samples so far, running width; a plan's reads sub,
    round, planned, strata drawn, width) and the run closes with an
    [adaptive.done] instant. The underlying samplers keep their own
    ["sampling"] / ["construction"] accounts. *)

module S2bdd = Netrel.S2bdd

type stop =
  | Width_reached     (** interval width reached [ci_width] *)
  | Budget_exhausted  (** [max_samples] tripped first *)
  | Exact_answer      (** trivial input or exact construction: no
                          sampling happened, width is 0 *)

val stop_name : stop -> string
(** ["width-reached"] / ["max-samples"] / ["exact"]. *)

type result = {
  value : float;    (** stopped point estimate, clamped into
                        [[lower, upper]] *)
  lower : float;
  upper : float;    (** the valid (Wilson-based) interval the stopping
                        rule evaluated *)
  exact : bool;
  ci_width : float;       (** realised [upper - lower] *)
  target_width : float;   (** the [ci_width] argument *)
  samples_used : int;
  samples_planned : int;  (** round-schedule total; can exceed
                              [samples_used] only on the trivial path *)
  rounds : int;
  stop : stop;
}

val default_max_samples : int
(** [1_000_000]. *)

val monte_carlo :
  ?obs:Obs.t -> ?trace:Trace.t -> ?seed:int -> ?jobs:int ->
  ?kernel:Mcsampling.kernel_mode -> ?csr:Kernel.Csr.t -> ?max_samples:int ->
  Ugraph.t -> terminals:int list -> ci_width:float -> result
(** Adaptive plain Monte Carlo over {!Mcsampling.Chunked}. Round sizes
    start at one {!Mcsampling.chunk_target} chunk and then track the
    Wilson width requirement (at most quadrupling per round).
    @raise Invalid_argument on invalid terminals, [ci_width] outside
    [(0, 1)], or [max_samples < 1]. *)

val horvitz_thompson :
  ?obs:Obs.t -> ?trace:Trace.t -> ?seed:int -> ?jobs:int ->
  ?kernel:Mcsampling.kernel_mode -> ?csr:Kernel.Csr.t -> ?max_samples:int ->
  Ugraph.t -> terminals:int list -> ci_width:float -> result
(** Adaptive Horvitz–Thompson. The interval prices [samples_used] as
    binomial trials at the (clamped) HT value — conservative for HT,
    whose deduplicated estimator has no more variance than MC on the
    same draws. @raise Invalid_argument as {!monte_carlo}. *)

val reliability :
  ?obs:Obs.t -> ?trace:Trace.t -> ?config:S2bdd.config ->
  ?extension:bool -> ?jobs:int -> ?prep:Preprocess.Pipeline.outcome ->
  ?orders:int array array -> ?max_samples:int ->
  Ugraph.t -> terminals:int list -> ci_width:float -> result
(** The full pipeline (Algorithm 1) under sequential stopping:
    {!Netrel.Reliability.split} gives the subproblems and their seeds,
    each subproblem runs {!S2bdd.prepare}, and every resulting
    sampling plan is drawn in
    Neyman-allocated rounds — round 1 proportional to stratum mass
    with every stratum covered, later rounds proportional to
    [mass_i * sigma^_i] with the half-count smoothed binomial spread,
    both apportioned by deterministic largest remainder. The
    per-subproblem interval combines the proven construction bounds
    with a Wilson interval on the pooled sampled mass (unsampled float
    slack counts against the upper bound), which is conservative for
    proportional stratification; subproblem intervals multiply, so
    each subproblem receives an even share [ci_width / (pb * k)] of
    the target width and [max_samples / k] of the budget (round 1 of
    a plan draws at least one descent per stratum even if that
    overshoots the share). Adaptive descents always use the plain MC
    indicator — see {!S2bdd.draw_stratum} — whatever
    [config.estimator] says; [config.samples] only seeds the
    construction's Theorem-1 stop rule.

    Strata within a round draw concurrently on the shared pool when
    [jobs > 1]; per-stratum streams make the result bit-identical at
    every [jobs] value.

    [prep] and [orders] replay a cached preprocessing outcome and its
    per-subproblem edge orderings for the same [(g, terminals)] (see
    {!Reliability.estimate}); the result is bit-identical to
    recomputing them. @raise Invalid_argument as {!monte_carlo} plus
    [jobs < 1]. *)
