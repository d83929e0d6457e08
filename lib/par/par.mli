(** Domain-parallel execution with a deterministic reduction contract.

    Every parallel surface of the library (the plain samplers, the
    S2BDD's stratified descents, the per-subproblem runs of
    Algorithm 1) is expressed as an {e ordered} list of independent
    tasks executed on a fixed-size pool of OCaml domains:

    - the task list depends only on the problem and the seed — never on
      the number of domains;
    - each task that needs randomness owns a dedicated [Prng] stream,
      split from the master generator in task order;
    - partial results are folded in task order.

    Consequently, for a fixed seed the result of every parallel
    computation in this library is {b bit-identical} at any [jobs]
    value: [jobs] trades wall-clock for cores, nothing else. The
    equivalence is enforced by [test/test_par.ml].

    The pool is {e reentrant}: a task may itself submit a batch (the
    reliability pipeline runs subproblems as tasks whose descents are
    again tasks). The submitting agent always participates in draining
    the queue before blocking, so nested batches cannot deadlock. *)

val default_jobs : unit -> int
(** The machine's recommended domain count (see
    [Domain.recommended_domain_count]), clamped to [max_jobs]. *)

val max_jobs : int
(** Upper bound on accepted [jobs] values (well under the OCaml
    runtime's 128-domain limit). *)

val forced_domains : unit -> int option
(** The [NETREL_FORCE_DOMAINS] environment override, if set to a
    positive integer: every parallel entry point behaves as though that
    [jobs] value had been requested — including [jobs = 1] call sites.
    Used by the test harness to force real multi-domain execution on
    paths that would otherwise take the sequential fast path; by the
    determinism contract this must not change any result. *)

val effective_jobs : int -> int
(** [effective_jobs requested] applies {!forced_domains} and clamps the
    result into [[1, max_jobs]].
    @raise Invalid_argument if [requested < 1]. *)

type counters = { batches : int; tasks : int }

val counters : unit -> counters
(** Process-wide execution totals: [batches] entries into a Par mapping
    ({!run} or {!Pool.map}, including the sequential fast path of
    {!run}) and [tasks] elements mapped, both monotone over the
    process lifetime. Report sites snapshot before and after the work
    they account for; the counters are informational and never affect
    results. *)

val set_batch_hook : (int -> unit) option -> unit
(** Installs (or clears) a process-wide dispatch probe, called with the
    batch size at every entry into a Par mapping — {!run} or
    {!Pool.map}, including the sequential fast path of {!run} — on the
    submitting agent, before any task of the batch runs.  Nested
    batches are submitted from worker domains, so the hook must be
    thread-safe.  Used by [Trace.install_par_hook] to stream task-
    dispatch events; purely observational, never affects results. *)

val chunks : total:int -> target:int -> (int * int) array
(** [chunks ~total ~target] splits [total] work items into
    [ceil (total / target)] contiguous chunks returned as
    [(offset, length)] pairs in offset order. Lengths are balanced
    (they differ by at most one) and every length is positive — zero-
    size chunks are never produced. The split depends only on [total]
    and [target], never on the number of domains; it is the unit of
    both work distribution and random-stream assignment.
    [total = 0] yields [[||]].
    @raise Invalid_argument if [total < 0] or [target < 1]. *)

module Pool : sig
  type t
  (** A fixed-size pool of worker domains plus the submitting caller.
      A pool with [jobs = n] owns [n - 1] worker domains; the caller
      is the [n]-th agent and helps drain every batch it submits, so
      [jobs = 1] pools never spawn a domain. *)

  val create : jobs:int -> t
  (** @raise Invalid_argument if [jobs < 1] or [jobs > max_jobs]. *)

  val map : t -> int -> (int -> 'a) -> 'a array
  (** [map t n f] computes [[| f 0; ...; f (n-1) |]], executing the
      calls on the pool's agents. Results are always returned in index
      order regardless of execution interleaving. If any [f i] raises,
      the first exception observed is re-raised in the caller after
      all tasks of the batch have settled. Tasks must not depend on
      each other; [f] may itself call [map] on the same pool
      (reentrancy is supported, see the module preamble). *)

  val shutdown : t -> unit
  (** Join all worker domains. The pool must not be used afterwards.
      Idempotent. *)

  val with_pool : jobs:int -> (t -> 'a) -> 'a
  (** [create], run, then [shutdown] (also on exceptions). *)

  val shared : jobs:int -> t
  (** A process-wide pool, created on first use and grown (never
      shrunk) to satisfy the largest [jobs] ever requested; shut down
      automatically at exit. Because results never depend on the
      domain count, serving a [jobs = 2] request from a larger shared
      pool is sound. Prefer this over {!create} on hot paths: domain
      spawn costs are paid once per process, not once per call.
      @raise Invalid_argument as {!create}. *)
end

val run : jobs:int -> int -> (int -> 'a) -> 'a array
(** [run ~jobs n f] computes [[| f 0; ...; f (n-1) |]]: sequentially on
    the calling domain when {!effective_jobs}[ jobs] is 1, otherwise
    {!Pool.map} on the {!Pool.shared} pool of that size. A task may
    itself call [run] (nested batches share the pool). Every parallel
    surface of the library runs through it; a call site that assigns
    per-task trace lanes uses {!effective_jobs}[ jobs] as the lane
    modulus. @raise Invalid_argument if [jobs < 1]. *)
