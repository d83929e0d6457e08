(** Differential self-validation of every estimation path in the
    library against an exact oracle, against paper identities and
    against its own reported variances.

    Three sections, all deterministic in [seed]:

    - {b oracle}: every {!Shapes.corpus} case is solved exactly with
      {!Bddbase.Exact} and then by every estimator —
      {!Mcsampling.monte_carlo}, {!Mcsampling.horvitz_thompson},
      {!S2bdd.estimate} across width caps, {!Reliability.estimate}
      with and without the extension — at [jobs] 1/2/8, checking the
      invariants each path promises: [lower <= value <= upper], the
      proven bounds contain the exact answer, [exact] claims are
      honest (value equals the oracle to 1e-9), and results are
      bit-identical at every [jobs] value.
    - {b metamorphic}: identities that need no oracle — self-loop,
      series, parallel and floating-cycle rewrites preserve [R]
      (Section 5 transforms), bridge factoring multiplies
      (Lemma 5.1), vertex relabelling leaves exact results unchanged,
      and the extension pipeline agrees with the raw exact BDD.
    - {b calibration}: the reported [variance_estimate] is replayed
      over many seeds and the empirical 95% CI coverage is required to
      sit within binomial tolerance of its nominal level.

    A violation carries the full reproducer (graph text, terminals,
    seed) so every failure is a replayable artifact. The driver behind
    [netrel selfcheck] and the budgeted [dune runtest] rule.

    The library also holds the differential oracles of the production
    kernels, {!Reference}: the pre-kernel samplers and S2BDD descents,
    which the oracle section's [kernel-matches-reference] checks, the
    kernel tests and the bench [kernels] rows compare against bit for
    bit. *)

module Shapes : module type of Shapes
(** The corpus the oracle and metamorphic sections run over, re-exported
    (the library's only public module is [Check]). *)

module Reference : module type of Reference
(** The retained reference samplers and descents, re-exported. *)

type violation = {
  section : string;   (** ["oracle"] / ["metamorphic"] / ["calibration"] *)
  invariant : string; (** stable id, e.g. ["s2bdd.value-in-bounds"] *)
  case : string;      (** corpus case label *)
  detail : string;    (** human-readable: what was expected, what came out *)
  artifact : string;  (** reproducer: graph edge list, terminals, seed *)
}

type section = {
  s_name : string;
  s_cases : int;
  s_checks : int;
  s_violations : int;
  s_skipped : int;    (** cases the oracle could not solve (budget) *)
}

type report = {
  seed : int;
  trials : int;
  jobs : int list;        (** the jobs values every estimator ran at *)
  sections : section list;
  violations : violation list;  (** in discovery order *)
  cases : int;
  checks : int;
}

val ok : report -> bool
(** No section recorded a violation. *)

val default_jobs : int list
(** [[1; 2; 8]] — the sequential fast path, the smallest real pool and
    an oversubscribed pool. *)

val run :
  ?obs:Obs.t ->
  ?trace:Trace.t ->
  ?jobs:int list ->
  ?trials:int ->
  ?seed:int ->
  unit ->
  report
(** Run all three sections over {!Shapes.corpus}[ ~seed ~trials]
    (default [trials = 50], [seed = 1]). [obs] (default
    {!Obs.disabled}) receives per-section counters and timers under
    the ["selfcheck"] prefix; [trace] (default {!Trace.disabled})
    receives one span per section and per oracle case. Neither affects
    the checks. *)

val report_json : report -> Obs.Json.t
(** The fixed-schema selfcheck document: top-level keys [netrel]
    (emitter identity, schema, [tool = "selfcheck"]), [run], [sections]
    (per-section case/check/violation/skip counts), [violations] (at
    most {!max_reported_violations}, with artifacts) and [result].
    Deterministic in the report, hence byte-stable for a fixed seed. *)

val max_reported_violations : int

val pp_report : Format.formatter -> report -> unit
(** The human-readable summary the CLI prints: one line per section
    plus each violation (capped) with its artifact indented. *)
