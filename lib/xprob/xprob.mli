(** Extended-range non-negative probability arithmetic.

    Network-reliability computations multiply up to [|E|] edge
    probabilities, so the existence probability of a single possible graph
    can be far below the smallest positive IEEE double
    ([~4.9e-324]).  The paper works around this with 10,000-digit decimal
    floats; all the algorithms actually need is {e dynamic range}, not
    precision, so this module represents a value as [m * 2^e] with an
    ordinary [float] mantissa [m] (normalised into [[0.5, 1)]) and an
    unbounded OCaml [int] binary exponent [e].  Relative precision is that
    of a double (53 bits), which dwarfs sampling error in every experiment.

    Values are immutable.  All operations expect (and produce) finite
    non-negative values; [sub] clamps small negative results of
    catastrophic cancellation to [zero] and raises [Invalid_argument] on
    clearly negative results.

    Results are normalised as [Float.frexp] would, bit for bit, but the
    fraction and exponent of a normal double are read from its bits;
    only zero, subnormals, infinities and NaN go through [Float.frexp].
    So {!scale}, {!mul} and {!add} allocate only their result, a record
    and its boxed mantissa (5 words). *)

type t
(** A non-negative extended-range real. *)

val zero : t
val one : t
val half : t

val of_float : float -> t
(** [of_float x] converts a non-negative finite float.
    @raise Invalid_argument if [x] is negative, infinite or NaN. *)

val to_float_exn : t -> float
(** Convert back to float.
    @raise Invalid_argument when the value overflows a double. Values
    below the smallest subnormal convert to [0.]. *)

val to_float_approx : t -> float
(** Like {!to_float_exn} but clamps overflow to [infinity] instead of
    raising. Underflow still returns [0.]. *)

val is_zero : t -> bool

val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero on a zero divisor. *)

val add : t -> t -> t

val sub : t -> t -> t
(** [sub a b] is [a - b].
    @raise Invalid_argument if the result is significantly negative
    (beyond cancellation noise); tiny negative residues clamp to
    {!zero}. *)

val complement : t -> t
(** [complement p] is [1 - p] for [p <= 1], clamping cancellation noise.
    @raise Invalid_argument if [p > 1] beyond rounding noise. *)

val scale : float -> t -> t
(** [scale c x] is [c * x] for a non-negative float [c]. *)

val world_prob : float array -> n:int -> present:(int -> bool) -> t
(** [world_prob ps ~n ~present] is the probability of one possible
    world over positions [0 .. n - 1]: [ps.(i)] for each position where
    [present i], [1 - ps.(i)] elsewhere. Bit for bit the left fold
    [scale c_(n-1) (... (scale c_0 one))], with [present] called once
    per position in increasing order. Each factor in [[2^-100, 1]] costs
    one multiply into a running double, selected without a branch on
    [present i]; the rest take a {!scale} step. A call allocates a
    constant number of words, plus a few per factor outside that range
    (the sampling kernels call it only for the worlds they weight).
    @raise Invalid_argument like {!scale} on a negative, infinite or
    NaN factor. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t

val pow_int : t -> int -> t
(** [pow_int x n] is [x^n] for [n >= 0] by binary exponentiation. *)

val log2 : t -> float
(** Base-2 logarithm as a float; [neg_infinity] for {!zero}. *)

val log10 : t -> float
(** Base-10 logarithm as a float; [neg_infinity] for {!zero}. *)

val mantissa_exponent : t -> float * int
(** Normalised representation [(m, e)] with value [m *. 2. ** e],
    [m] in [[0.5, 1)], or [(0., 0)] for {!zero}. *)

val sum : t list -> t

val to_string : t -> string
(** Decimal scientific notation, e.g. ["3.1415e-1234"]. *)

val pp : Format.formatter -> t -> unit
