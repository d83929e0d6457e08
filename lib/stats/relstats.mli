(** Accuracy metrics and measurement helpers for the experiments.

    Section 7.6 evaluates approximation quality over [q1] searches
    (terminal sets) with [q2] repetitions each:
    {ul
    {- variance:   [sum_ij (R_i - R^_ij)^2 / (q1 * q2)]}
    {- error rate: [sum_ij |R_i - R^_ij| / (q1 * q2 * R_i)]}} *)

val variance : exact:float array -> estimates:float array array -> float
(** [variance ~exact ~estimates] with [estimates.(i)] the repetitions
    for search [i]. @raise Invalid_argument on shape mismatch or empty
    input. *)

val error_rate : exact:float array -> estimates:float array array -> float
(** As above; searches with [R_i = 0] contribute [0] when the estimate
    is also [0] and [1] otherwise (relative error against a zero truth
    saturates). *)

val mean : float array -> float
val std_dev : float array -> float
(** Sample standard deviation (n−1 divisor, unbiased variance): a
    single observation reports [0.] rather than claim zero spread with
    a population divisor. @raise Invalid_argument on empty input. *)

val quantile : float array -> float -> float
(** [quantile xs q] for [q] in [[0, 1]], linear interpolation.
    @raise Invalid_argument on empty input. *)

val now_monotonic : unit -> float
(** Seconds on [CLOCK_MONOTONIC] (arbitrary origin): immune to NTP
    steps, safe to difference. *)

val time : (unit -> 'a) -> 'a * float
(** Elapsed monotonic seconds for one call, clamped at [0.]. *)

val time_median : ?repeats:int -> (unit -> 'a) -> 'a * float
(** Run [repeats] times (default 3) and report the median elapsed
    monotonic time with the last result. *)

val format_seconds : float -> string
(** Human-readable: ["412us"], ["3.2ms"], ["1.54s"]. *)

(** {2 Binomial confidence intervals}

    Interval estimators for a proportion observed as [phat] out of [n]
    Bernoulli trials. {!Wald} is the fixed normal interval
    [phat ± z sqrt(phat (1-phat) / n)] — it collapses to zero width at
    [phat ∈ {0, 1}], exactly the regime that matters for reliable
    graphs, and is retained only as the legacy reference. {!Wilson}
    (score inversion) always has nonzero width, always contains [phat],
    and its width is strictly decreasing in [n] for a fixed [phat];
    {!Agresti_coull} is the simpler add-[z²] pseudo-count fallback
    (slightly wider than Wilson, bounds clamped into [[0, 1]]). *)

type interval_method = Wald | Wilson | Agresti_coull

val default_z : float
(** [1.96] — the nominal two-sided 95% normal quantile. *)

val interval :
  ?z:float -> interval_method -> phat:float -> n:int -> float * float
(** [interval m ~phat ~n] is the [(lower, upper)] confidence interval
    for the success probability, both bounds in [[0, 1]] with
    [lower <= phat <= upper] — the bounds are clamped around the
    estimate, so float rounding at 0 or [n] hits can never exclude it.
    [phat] is clamped into [[0, 1]] first (the HT estimator can
    overshoot 1 under sampling noise). [z] defaults to
    {!default_z}. @raise Invalid_argument when [n < 1] or [z] is not
    finite and positive. *)
