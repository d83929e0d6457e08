(** Lightweight run instrumentation: counters, gauges, timers, text
    annotations and bounded series, collected under dotted keys and
    rendered as one deterministic JSON document.

    {2 Zero overhead when disabled}

    Every entry point takes an observer [t]; the {!disabled} observer
    (the default everywhere in the library) makes each call a single
    branch on [enabled] and nothing else — no allocation, no clock
    read, no table lookup.  Hot loops may therefore call [Obs.incr]
    unconditionally; code that must not pay even the branch can guard
    on {!enabled}.

    {2 Determinism}

    An observer is mutated only from the thread that owns it.  Parallel
    work creates one observer per task with {!fresh_like}, and the
    caller folds them back in task order with {!merge} — the same
    discipline as the deterministic-reduction contract in {!Par}.
    Rendering sorts keys, so two runs that record the same values
    produce byte-identical JSON.  Timers use the observer's clock; the
    [NETREL_FAKE_CLOCK] environment variable (any non-empty value other
    than ["0"]) pins the default clock to a constant [0.] so seeded
    runs are byte-stable end to end — the test hook behind the
    [--stats json] cram test. *)

(** Deterministic JSON values: construction, rendering and a minimal
    parser (used by tests and by bench's emit-then-reparse self check —
    no external JSON dependency). *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  exception Parse_error of string

  val to_string : ?pretty:bool -> t -> string
  (** Renders [t] deterministically: object keys in the order given,
      floats via the shortest ["%.12g"] representation that round-trips
      (falling back to ["%.17g"]), non-finite floats as [null].  With
      [~pretty:true], 2-space indentation. *)

  val of_string_exn : string -> t
  (** Strict parser for the subset emitted by {!to_string} (standard
      JSON; [\u] escapes limited to the BMP).
      @raise Parse_error on malformed input. *)

  val member : string -> t -> t option
  (** [member k (Obj kvs)] is the value bound to [k], if any;
      [None] on non-objects. *)
end

type t

val disabled : t
(** The no-op observer: every recording call returns immediately. *)

val create : ?clock:(unit -> float) -> unit -> t
(** A live observer.  [clock] defaults to {!default_clock}[ ()]. *)

val default_clock : unit -> unit -> float
(** The clock {!create} uses when none is given: [CLOCK_MONOTONIC]
    seconds (via the bechamel stub — immune to wall-clock steps), or
    the constant [0.] clock when [NETREL_FAKE_CLOCK] is set (see
    above).  Shared with {!Trace} so every subsystem honours the same
    pin. *)

val enabled : t -> bool

val sub : t -> string -> t
(** [sub t p] is a view of [t] that prefixes every key with [p ^ "."].
    Shares storage with [t]; [sub disabled _ == disabled]. *)

val fresh_like : t -> t
(** An empty observer with the same clock and enabledness (and no
    prefix): give one to each parallel task, then {!merge} them back in
    task order. *)

val now : t -> float
(** The observer's clock (constant [0.] for {!disabled}). *)

(** {2 Recording} *)

val incr : t -> string -> unit
val add : t -> string -> int -> unit

val gauge : t -> string -> float -> unit
(** Sets the gauge (last write wins). *)

val gauge_max : t -> string -> float -> unit
(** Sets the gauge to the max of its current value and the argument. *)

val text : t -> string -> string -> unit
(** Sets a text annotation (last write wins). *)

val record_span : t -> string -> float -> unit
(** Adds an externally measured duration (seconds) to a timer:
    total accumulates, span count increments. *)

val time : t -> string -> (unit -> 'a) -> 'a
(** [time t name f] runs [f] and records its wall-clock duration as a
    span on timer [name] (also on exceptional exit).  When [t] is
    disabled this is exactly [f ()]. *)

val series : t -> string -> float -> unit
(** Appends a point to a bounded series (per-layer trajectories).  At
    most 512 points are stored: on overflow every other point is
    dropped and the sampling stride doubles, deterministically — the
    JSON records the final stride as [every]. *)

val hist : t -> string -> int -> unit
(** Records an integer value into a {!Metrics.Histogram} cell: fixed
    base-2 sub-bucketed layout, so merging is exact bucket-count
    addition and quantiles are deterministic (see {!Metrics}). *)

val hist_seconds : t -> string -> float -> unit
(** [hist t name (round (dt * 1e9))]: records a duration in integer
    nanoseconds.  Name the key with an [_ns] suffix so readers (and
    benchdiff's direction table) know the unit. *)

val hist_merge : t -> string -> Metrics.Histogram.t -> unit
(** Merges an externally accumulated histogram (e.g. one a parallel
    worker filled locally) into the named cell — exact, so fold order
    cannot perturb the result. *)

(** {2 GC accounting} *)

val gc_counters_live : unit -> bool
(** Whether GC deltas are measured at all: false under
    [NETREL_FAKE_CLOCK], where phases record zeros instead so
    documents stay byte-stable and jobs-invariant. *)

val record_gc : t -> string -> Metrics.Gcstat.delta -> unit
(** Records a measured GC delta under [name.*]: word/collection
    counters add (per-task deltas accumulate under ordered reduction),
    [name.top_heap_words] is a max-gauge. *)

val gc_begin : t -> Metrics.Gcstat.snapshot option
val gc_end : Metrics.Gcstat.snapshot option -> Metrics.Gcstat.delta
(** The split form of {!gc_phase}, for a parallel task whose delta the
    calling thread records later ({!record_gc}, in task order):
    [gc_begin t] snapshots under the same liveness rule (an enabled [t]
    and live counters) and [gc_end] returns the delta since, or
    {!Metrics.Gcstat.zero} when nothing was measured, so the cells keep
    their shape. *)

val gc_phase : t -> ?emit:(string -> float -> unit) -> string -> (unit -> 'a) -> 'a
(** [gc_phase t name f] runs [f] and records the [Gc.quick_stat] delta
    it caused under [name.*] (also on exceptional exit).  [emit] is
    called with [(key, value)] for the headline counters (minor/major
    words, top-heap words) when measurement is live — the hook
    {!Trace} counter events ride on.  Under the fake clock nothing is
    measured or emitted and the cells record zero. *)

(** {2 Reading back} *)

val counter_value : t -> string -> int
val gauge_value : t -> string -> float
val text_value : t -> string -> string
val timer_seconds : t -> string -> float
val timer_count : t -> string -> int
val series_values : t -> string -> float array

val hist_count : t -> string -> int
val hist_quantile : t -> string -> float -> int

val mem : t -> string -> bool
(** Whether a cell exists under the (prefixed) name — lets report-time
    derivations distinguish "never recorded" from a zero value. *)

(** {2 Aggregation and rendering} *)

val merge : into:t -> t -> unit
(** Folds [src]'s cells into [into] (applying [into]'s prefix):
    counters and timers add, gauges take the max, text takes [src]'s
    value, series points append in order.  Keys are visited in sorted
    order, so merging is deterministic.  No-op if either side is
    disabled. *)

val to_json : t -> Json.t
(** All cells as a nested object: dotted keys split on ['.'], keys
    sorted at every level.  Counters render as ints, gauges as floats,
    text as strings, timers as [{"seconds": s, "count": n}], series as
    [{"every": k, "values": [...]}], histograms as
    [{"count", "max", "p50", "p90", "p99", "buckets": [[idx, n], ...]}]
    with only non-empty buckets listed.  A key that is both a leaf and
    a prefix renders the leaf under ["value"]. *)
