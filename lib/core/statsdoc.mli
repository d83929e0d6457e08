(** Assembly of the one-JSON-document-per-run structured stats report
    behind the CLI's [--stats json] flag (and bench's BENCH_*.json
    per-phase breakdowns).

    The document's top level is fixed: [netrel] (emitter identity and
    schema version), [run] (what was asked), [preprocess],
    [construction], [sampling], [adaptive] and [par] (the per-phase accounts
    recorded into an {!Obs.t} during the run — empty objects for phases
    that did not execute), [gc] (the whole-run [Gc.quick_stat] delta,
    schema 2), and [result] (what came out). Keys inside
    the phase objects are sorted ({!Obs.to_json}), so for a fixed seed
    and a deterministic clock the document is byte-stable.

    Schema history: v2 added the top-level [gc] section, per-phase
    [gc.*] counters and [hist.*] histogram objects inside the phase
    sections, and made [sampling.kernel.samples_per_sec] a report-time
    derivation from the [kernel.elapsed] monotonic timer. *)

type run = {
  command : string;    (** e.g. ["estimate"] or ["bench"] *)
  method_ : string;    (** estimation method name, e.g. ["pro"], ["mc"] *)
  graph : string;      (** dataset abbreviation or file path *)
  terminals : int list;
  seed : int;
  jobs : int;          (** effective domain count *)
  samples : int;
  width : int;
}

val schema_version : int

val required_keys : string list
(** The fixed top-level keys, in emission order: every document
    {!build} produces binds exactly these. *)

val result_of_report : Reliability.report -> Obs.Json.t
(** [result] object for a full-pipeline run: value, bounds, exactness,
    budgets and the subproblem count. *)

val result_of_estimate : Mcsampling.estimate -> Obs.Json.t
(** [result] object for a plain sampler run: value, the 95% Wilson
    [lower]/[upper] bounds ({!Mcsampling.interval} — nonzero width even
    at 0 or [n] hits, unlike the Wald interval [variance_estimate]
    implies), samples, hits, distinct, variance and the chunk count. *)

val result_of_adaptive :
  value:float -> lower:float -> upper:float -> exact:bool ->
  ci_width:float -> target_width:float -> samples_used:int ->
  samples_planned:int -> rounds:int -> stop:string -> Obs.Json.t
(** [result] object for a sequential-stopping run (labelled arguments
    because the adaptive driver lives above this library): the stopped
    point estimate, its realised interval and width against the target,
    the sample account, the round count and the stop reason. *)

val result_value : value:float -> exact:bool -> Obs.Json.t
(** Minimal [result] object (exact BDD / brute force). *)

val par_account : Obs.t -> (unit -> 'a) -> 'a
(** [par_account obs f] runs [f] and records into [obs], as the
    counters [par.batches] and [par.tasks], the {!Par.counters} it
    added: the run's own account, so a document rendered again later
    (a [serve] memo hit) reads as the first. An account an estimate
    inside [f] has already recorded into [obs] stands. *)

val build :
  obs:Obs.t -> run:run -> seconds:float -> result:Obs.Json.t -> Obs.Json.t
(** One stats document: phase sections are pulled out of [obs]'s
    rendered tree (absent sections become [{}]), including the [par]
    section that {!par_account} records, and [seconds] is the
    end-to-end wall-clock of the run as measured by the caller on
    [obs]'s clock. *)
