(** Amortized multi-query reliability engine.

    Every CLI estimate rebuilds preprocessing, the edge orderings and
    the sampling snapshot from scratch, but the workload the paper's
    evaluation implies (Table 5 reuses one graph across hundreds of
    runs) is many [(terminals, eps)] queries against the {e same}
    uncertain graph. The engine caches every artifact that is a pure
    deterministic function of its inputs — so serving a query through
    the engine is {b bit-identical} to computing it from scratch — and
    memoizes full query results:

    {ul
    {- {b graph context} — keyed by a 62-bit content digest of the
       graph ({!digest}, built on {!Hash64.mix64}), which the graph
       keeps after its first query;}
    {- {b Csr snapshot} — {!Kernel.Csr.t} built once per graph and
       passed to the samplers via their [?csr] parameter;}
    {- {b preprocessing outcome} — the extension pipeline
       ({!Preprocess.Pipeline.run}) once per (graph, terminals), with
       the per-subproblem BFS edge orderings computed alongside and
       replayed via [?prep] / [?orders] of {!Reliability.estimate} and
       {!Adaptive.reliability};}
    {- {b results} — one full answer per distinct {!query} record,
       compared field by field (terminals, method, budgets, seed, jobs,
       kernel); a repeated query replays the stored answer and its
       stats verbatim.}}

    {b Cache key contract.} Cached artifacts are sound because every
    producer is deterministic: the pipeline emits subproblems in
    canonical (min-vertex-id) order, the transform preserves
    first-occurrence edge order, and orderings/seed-splitting are pure
    functions of the outcome. The graph digest folds the vertex count
    and the exact [(u, v, p)] bit patterns in edge order; two graphs
    with the same digest are treated as identical (a [2^-62]-grade
    collision risk, accepted as for the HT dedup tables).

    Cache traffic is counted on the engine observer under ["engine."]:
    [graph.hit/miss], [csr.hit/miss], [prep.hit/miss],
    [result.hit/miss], [queries] and [digest_from_header] — the batch
    CLI's summary document exposes them, proving amortization. *)

type t

type method_ = Pro | Pro_ht | Sampling_mc | Sampling_ht

val method_name : method_ -> string
(** ["pro"] / ["pro-ht"] / ["sampling-mc"] / ["sampling-ht"] — the
    names {!Statsdoc} documents carry. *)

val method_of_name : string -> method_ option
(** Inverse of {!method_name}; also accepts the CLI aliases [mc] and
    [ht]. *)

type query = {
  terminals : int list;
  method_ : method_;
  samples : int;     (** fixed budget (Theorem 1 reduces it for Pro) *)
  width : int;       (** maximum S2BDD layer width *)
  ci_width : float option;
      (** adaptive sequential stopping instead of the fixed budget *)
  max_samples : int option;  (** cap for a [ci_width] run *)
  seed : int;
  jobs : int;
  kernel : Mcsampling.kernel_mode;  (** sampling-* methods only *)
}

val default : query
(** [terminals = []] (callers must fill it), method [Pro],
    [samples = 10_000], [width = 10_000], no stopping rule, seed 1,
    jobs 1, {!Mcsampling.Flat}. *)

val validate : query -> (unit, string) result
(** The one check a query record gets before it is answered, shared by
    [netrel estimate] and the [batch] / [serve] query lines: [Error] with
    the CLI's message when [max_samples] is set without [ci_width] (the
    cap would be ignored, yet still split the result memo), or when
    [ci_width] is set for {!Pro_ht} (adaptive pro draws MC descents
    only, so the answer would be pro's under pro-ht's name). *)

(** What a method computed, before rendering. *)
type outcome =
  | Report of Netrel.Reliability.report  (** fixed-budget [pro] / [pro-ht] *)
  | Sampled of Mcsampling.estimate       (** fixed-budget [sampling-*] *)
  | Stopped of Adaptive.result           (** any [ci_width] run *)

val estimate :
  ?obs:Obs.t -> ?trace:Trace.t -> ?extension:bool ->
  ?csr:(unit -> Kernel.Csr.t) ->
  ?prep:(unit -> Preprocess.Pipeline.outcome * int array array) ->
  Ugraph.t -> query -> outcome
(** The one method dispatch: runs [q] on [g] through the estimator its
    method and stopping rule select ({!Netrel.Reliability.estimate},
    {!Adaptive.reliability}, {!Mcsampling.monte_carlo} /
    {!Mcsampling.horvitz_thompson}, {!Adaptive.monte_carlo} /
    {!Adaptive.horvitz_thompson}). {!query} calls it with its cached
    artifacts; [netrel estimate] calls it with none, plus its
    [--trace] and [--no-extension] ([extension], default [true]). [csr]
    supplies the sampling snapshot of [g] (sampling methods only);
    [prep] the preprocessing outcome of [(g, q.terminals)] and its
    per-subproblem edge orderings (pro methods only). Each is forced at
    most once, and only by a method that reads it; as pure functions of
    the graph they never change the answer. Does not {!validate}.
    @raise Invalid_argument as the selected estimator. *)

val result_json : outcome -> Obs.Json.t
(** The {!Netrel.Statsdoc} [result] section of an outcome. *)

type answer = {
  method_name : string;
  result : Obs.Json.t;   (** the {!Statsdoc} result section *)
  value : float;
  exact : bool;
  cached : bool;         (** served from the result memo *)
  obs : Obs.t;
      (** the query's observer (preprocess / construction / sampling
          phase accounts); replayed verbatim on a memo hit *)
}

val create : ?obs:Obs.t -> unit -> t
(** [obs] (default {!Obs.disabled}) receives the engine's cache
    counters; per-query observers are spawned from it
    ({!Obs.fresh_like}), so a disabled engine serves answers without
    recording stats. *)

val obs : t -> Obs.t

val digest : Ugraph.t -> int
(** Non-negative 62-bit content digest of a graph
    ([Bingraph.Digest.of_graph] — the same fold the binary container
    stores in its header), folded on the first call and kept in the
    graph. *)

val query : ?digest:int -> t -> Ugraph.t -> query -> answer
(** Serve one query, reusing every cached artifact for the graph. The
    estimate is bit-identical to the standalone from-scratch run at
    the same seed/jobs/kernel (the regression suite pins this at jobs
    1/2/8). [?digest] supplies the graph's content digest when the
    caller already holds it (read from a [Bingraph] header), skipping
    the graph's one O(m) fold — counted under
    [engine.digest_from_header]. It is trusted as the cache key, so it
    must be {!digest} of [g]. @raise Invalid_argument on invalid
    terminals, [jobs < 1], or budgets the underlying estimator
    rejects. *)

val counters : t -> (string * int) list
(** Snapshot of the cache counters (missing ones read 0), in a fixed
    order — [queries] first, then the [hit]/[miss] pairs. *)

val summary_json : t -> Obs.Json.t
(** [{"engine": {counters...}}] — the batch CLI's closing document. *)
