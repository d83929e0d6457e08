(** Streaming structured trace events: the time-domain complement of
    {!Obs}'s aggregates.

    Where {!Obs} answers "how much, in total" (counters, timers,
    bounded series), [Trace] answers "{e when}": an append-only stream
    of timestamped events — completed spans, instants and
    counters-over-time — that shows the S2BDD layer loop stall on a
    wide frontier, the estimator converge, and wall-clock attributed to
    the individual domain lanes of the {!Par} pool.

    {2 Zero overhead when disabled}

    Every entry point takes a sink [t]; the {!disabled} sink (the
    default everywhere in the library) makes each call a single branch
    — no allocation, no clock read.  {!task}[ disabled] is [disabled]
    and {!merge} of a disabled side is a no-op, so instrumented
    parallel code pays nothing either.

    {2 Lanes, tasks and determinism}

    Events carry a {e lane}: the domain index ([tid] in the Chrome
    export) the work was assigned to.  The main thread records on
    lane 0.  Parallel work follows the same discipline as
    {!Obs.fresh_like}/{!Obs.merge}: each task records into its own
    bounded buffer created with {!task} (single writer, no
    synchronisation), bound to lane [i mod lanes] where [i] is the
    task index and [lanes] is {!Par.effective_jobs} of the [jobs] the
    tasks run under ({!Par.run}, the domain budget in effect); the
    caller then folds the buffers back with {!merge} in
    task order.  Consequently the merged stream's {e content and
    order} depend only on the problem and the seed — never on the
    domain schedule — and only the [lane] field varies with the
    [jobs] value.  With the clock pinned ([NETREL_FAKE_CLOCK], same
    hook as {!Obs}) the exported trace is byte-stable for a fixed
    seed and [jobs].

    Two kinds of value are measurements, not content: timestamps and
    span durations, and the values of [*.gc.*] counter events (the
    headline GC deltas that {!Obs.gc_phase}'s [emit] hook streams,
    e.g. [preprocess.gc.major_words]).  A GC delta depends on when the
    runtime collects, which other domains' allocation moves, so it may
    differ between [jobs] values and between runs.  The contract fixes
    such an event's presence, name and position in the stream, never
    its value; under [NETREL_FAKE_CLOCK] GC counters are not emitted
    at all.

    Lane assignment is by task index, not by executing domain: under
    work stealing a task may run on a different domain than its lane
    names.  The trade is deliberate — recording [Domain.self] would
    make traces schedule-dependent and untestable; task-order lanes
    keep the determinism contract of {!Par} while still showing
    per-lane occupancy (each lane's spans carry the real durations of
    the tasks assigned to it).

    {2 Bounded buffers}

    Each buffer holds at most [capacity] events in a ring: on overflow
    the {e oldest} event is overwritten and a [dropped] count
    increments, deterministically (the surviving window is the last
    [capacity] events, in order).  {!merge} transfers the child's
    events and adds its drop count, so nothing is silently lost —
    exports record the total under ["dropped"]. *)

(** Event argument values (rendered into the Chrome [args] object). *)
type arg =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type kind =
  | Span of float  (** completed span; payload is the duration, seconds *)
  | Instant
  | Counter of float  (** sampled value of a named counter-over-time *)

type event = {
  name : string;
  kind : kind;
  ts : float;  (** seconds since the trace epoch (creation time) *)
  lane : int;  (** domain lane, [tid] in the Chrome export *)
  args : (string * arg) list;
}

type t

val schema_version : int
(** Version stamp carried by both export formats (under
    ["otherData.schema"] / the JSONL header). *)

val control_lane : int
(** The lane carrying cross-domain control events ({!instant_shared},
    the {!install_par_hook} dispatch stream): equal to {!Par.max_jobs},
    one past the largest possible domain lane index, so it never
    collides with a domain lane. *)

val disabled : t
(** The no-op sink: every recording call returns immediately. *)

val enabled : t -> bool

val create :
  ?clock:(unit -> float) ->
  ?capacity:int ->
  ?on_event:(event -> unit) ->
  unit ->
  t
(** A live sink recording on lane 0.  [clock] defaults to
    {!Obs.default_clock}[ ()] (so [NETREL_FAKE_CLOCK] pins it);
    [capacity] (default 65536) bounds every buffer created from this
    sink; [on_event] is invoked synchronously for {e every} event at
    emit time — including events recorded by {!task} buffers on worker
    domains, so it must be thread-safe (the {!Progress} reporter is).
    The listener fires even for events the ring subsequently drops. *)

val now : t -> float
(** The sink's clock (constant [0.] for {!disabled}). *)

val task : t -> lane:int -> t
(** A fresh buffer for one parallel task, bound to [lane]: same clock,
    epoch, capacity and listener as [t], its own event storage (single
    writer — only the executing task may record into it).  Fold the
    buffers back with {!merge} in task order.  [task disabled _] is
    [disabled].
    @raise Invalid_argument if [lane < 0]. *)

val merge : into:t -> t -> unit
(** Appends [src]'s events (and drop count) onto [into]'s buffer, in
    order, preserving each event's lane.  Call in task order from the
    thread that owns [into].  Does not re-fire the listener.  No-op if
    either side is disabled. *)

(** {2 Recording} *)

val instant : t -> ?args:(string * arg) list -> string -> unit

val counter : t -> string -> float -> unit
(** One sample of a named counter-over-time (Chrome ["C"] events — the
    per-layer frontier width, for instance, plots directly). *)

val complete : t -> ?args:(string * arg) list -> ts:float -> string -> unit
(** [complete t ~ts name] records a span that began at [ts] (a value of
    {!now}[ t]) and ends now — for spans whose arguments are only known
    at the end, like a layer's width after deletion. *)

val span : t -> ?args:(string * arg) list -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f] and records it as a completed span (also
    on exceptional exit).  When [t] is disabled this is exactly
    [f ()]. *)

val instant_shared : t -> ?args:(string * arg) list -> string -> unit
(** Thread-safe instant on {!control_lane}, usable from any domain
    (mutex-protected shared buffer).  The shared stream's order is
    submission order, which is only deterministic when one domain
    submits — it is appended after the merged lane stream in exports
    and is not covered by the lane-merge determinism contract. *)

val install_par_hook : t -> unit
(** Routes {!Par.set_batch_hook} into [t]: every batch dispatched to
    the domain pool emits a ["par.batch"] {!instant_shared} carrying
    the task count.  Installing a disabled sink clears the hook. *)

(** {2 Reading back} *)

val events : t -> event list
(** The sink's own buffer, oldest first (shared-lane events not
    included; see {!shared_events}). *)

val shared_events : t -> event list
val dropped : t -> int
(** Total events dropped on overflow (own buffer, merged children and
    the shared buffer). *)

(** {2 Export} *)

val to_chrome : t -> Obs.Json.t
(** The whole stream as one Chrome trace-event document (loadable in
    Perfetto / [chrome://tracing]): [pid] = 0 (the run), [tid] = lane,
    completed spans as ["X"] events with microsecond [ts]/[dur],
    instants as ["i"], counters as ["C"], plus process/thread-name
    metadata per lane.  Emitted with {!Obs.Json}, so it round-trips
    through {!Obs.Json.of_string_exn}. *)

val write_chrome : out_channel -> t -> unit

val write_jsonl : out_channel -> t -> unit
(** Flat export: a header line
    [{"netrel":"trace","schema":1,"dropped":N}] followed by one JSON
    object per event (same shape as the Chrome [traceEvents] entries,
    without the metadata records). *)

val validate_chrome : Obs.Json.t -> (unit, string) result
(** Structural schema check used by the tier-1 runtest rule: a
    ["traceEvents"] list must be present and every entry must carry
    [name]/[ph]/[pid]/[tid] (and [ts], except metadata records). *)

(** Live convergence reporter: a throttled, TTY-aware stderr view fed
    by the event stream (install as [create]'s [on_event]).  Shows the
    running estimate, CI half-width, samples/sec, HT dedup ratio and
    layer/width during construction.  Renders on phase transitions and
    then at most once per [interval]; with the fake clock only the
    phase-transition renders fire, so the output is byte-stable — the
    hook behind the [--progress] cram test. *)
module Progress : sig
  type reporter

  val create :
    ?emit:(string -> unit) ->
    ?tty:bool ->
    ?interval:float ->
    ?clock:(unit -> float) ->
    unit ->
    reporter
  (** [emit] receives whole frames (default: write to stderr and
      flush); [tty] (default: [Unix.isatty Unix.stderr]) selects
      carriage-return rewriting vs one line per render; [interval]
      (default 0.2s) throttles; [clock] defaults to
      {!Obs.default_clock}[ ()]. *)

  val on_event : reporter -> event -> unit
  (** Thread-safe: may be fed from worker domains. *)

  val finish : reporter -> unit
  (** Renders the final summary line (always, even when throttled) and
      stops consuming events.  Idempotent. *)
end
