(** The end-to-end pipeline of Algorithm 1: preprocess with the
    extension technique, run an S2BDD per decomposed subproblem, and
    multiply.

    This is the primary public entry point of the library. *)

type report = {
  value : float;       (** estimated (or exact) [R[G, T]], within
                           [[lower, upper]] (each subresult is clamped
                           at the source, {!S2bdd.result}[.value]) *)
  lower : float;       (** proven lower bound (product form) *)
  upper : float;       (** proven upper bound *)
  exact : bool;        (** every subproblem resolved exactly *)
  s_given : int;
  s_reduced : int;
      (** largest final Theorem-1 budget over subproblems; [0] means
          {e no sampling was needed} — the run resolved exactly
          (trivially in preprocessing or by complete construction).
          Uniform across every path: trivial reports, combined
          subproblem reports and the no-extension path all follow it.
          The unused per-subproblem [s'] of an exact run stays
          available in [subresults]. *)
  samples_drawn : int;
  subresults : S2bdd.result list;
  preprocess : Preprocess.Pipeline.stats option;
      (** [None] when the extension produced a trivial answer or was
          disabled *)
}

(** One S2BDD instance of a run: a subproblem graph, its terminals and
    the config its construction uses. *)
type subproblem = {
  graph : Ugraph.t;
  terminals : int list;
  config : S2bdd.config;
}

type split =
  | Resolved of float  (** the pipeline settled [R] without an S2BDD *)
  | Split of {
      pb : float;  (** bridge factor the subresults multiply into *)
      stats : Preprocess.Pipeline.stats option;
      subproblems : subproblem array;
    }

val split :
  ?obs:Obs.t ->
  ?trace:Trace.t ->
  ?config:S2bdd.config ->
  ?extension:bool ->
  ?prep:Preprocess.Pipeline.outcome ->
  ?orders:int array array ->
  Ugraph.t ->
  terminals:int list ->
  split
(** The subproblems every pro driver runs — {!estimate}, the adaptive
    driver and {!Bounds.compute} — in subproblem order. With
    [extension] (default true) it runs {!Preprocess.Pipeline.run}
    (recording into [obs]/[trace]) unless [prep] is given. Subproblem
    [i]'s config is [config] with the [i]-th seed drawn from
    [config.seed], and with [order = `Explicit orders.(i)] when
    [orders] is given. With [extension = false] the whole graph is the
    one subproblem, under [config] unchanged, with [pb = 1] and no
    stats. *)

val estimate :
  ?obs:Obs.t ->
  ?trace:Trace.t ->
  ?config:S2bdd.config ->
  ?extension:bool ->
  ?jobs:int ->
  ?prep:Preprocess.Pipeline.outcome ->
  ?orders:int array array ->
  Ugraph.t ->
  terminals:int list ->
  report
(** [estimate g ~terminals] approximates [R[G, T]].

    [obs] (default {!Obs.disabled}) collects the per-phase run account:
    preprocessing under ["preprocess"] (see {!Preprocess.Pipeline.run}),
    per-subproblem construction and descents under ["construction"] and
    ["sampling"] (see {!S2bdd.estimate}; subproblem observers are
    merged back in subproblem order, so the stats are deterministic at
    any [jobs]). Instrumentation never changes results.

    [trace] (default {!Trace.disabled}) streams the time-domain view of
    the same run: the preprocessing stage spans, one [subproblem] span
    per decomposed subproblem (recorded into a per-task buffer on lane
    [index mod lanes] and merged back in subproblem order, wrapping
    that subproblem's [layer]/[descent] events), and a final [estimate]
    instant carrying [value]/[lower]/[upper]/[exact]/[samples] — on
    every return path, trivial ones included.

    With [extension = true] (default) the graph is pruned, decomposed
    at bridges and transformed first (Section 5); each subproblem gets
    its own S2BDD with an independent seed split from [config.seed]
    (see {!split}), and the results multiply with the bridge probability [pb]
    (Lemma 5.1). With [extension = false], a single S2BDD runs on the
    raw graph — the paper's "Pro w/o ext" configuration.

    [jobs] (default 1) sets the domain-pool size: decomposed
    subproblems run concurrently, and each S2BDD's stratified descents
    run on the same pool (see {!S2bdd.estimate}). Per-subproblem seeds
    are assigned before execution and results fold in subproblem
    order, so {b the report is bit-identical at every [jobs] value}.

    [prep] supplies a previously computed {!Preprocess.Pipeline.run}
    outcome for the same [(g, terminals)] pair, skipping the pipeline
    (meaningful only with [extension = true]). Everything downstream is
    a pure function of the outcome and [config], so the report is
    bit-identical to recomputing it — {!Engine}'s artifact cache relies
    on this.

    [orders] supplies one explicit edge ordering per decomposed
    subproblem (in subproblem order, matching [prep]); each must equal
    what [config.order] would have computed for that subproblem, which
    makes the construction bit-identical while skipping the ordering
    pass. Only meaningful together with [prep].
    @raise Invalid_argument if [jobs < 1]. *)

val exact :
  ?node_budget:int ->
  ?extension:bool ->
  Ugraph.t ->
  terminals:int list ->
  (float, Bddbase.Exact.error) Result.t
(** Exact reliability through the full-BDD baseline, optionally after
    the (exactness-preserving) extension technique. *)
