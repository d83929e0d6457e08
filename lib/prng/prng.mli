(** Deterministic, splittable pseudo-random number generation.

    Every randomised component of the library (samplers, workload
    generators, probability assignment) draws from this module so that a
    single integer seed reproduces an entire experiment bit-for-bit.

    The generator is xoshiro256** (Blackman & Vigna), seeded through
    SplitMix64; both implemented here from scratch on [int64].  States are
    mutable and not thread-safe; use {!split} to derive independent
    streams for parallel or structurally separate uses.

    A state is one private 32-byte buffer holding the four 64-bit
    xoshiro words, read and written with the unboxed int64 bytes
    primitives, so a generator step allocates nothing. {!bernoulli},
    {!bernoulli_at}, {!bool}, {!int}, {!advance}, {!Bitbatch.draw} and
    {!Bitbatch.draw_at} allocate nothing at all;
    {!float}, {!uniform} and {!bits64} box only the value they return.
    {!create}, {!split} and {!copy} allocate the new 32-byte state. *)

type t
(** A mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from an integer seed via
    SplitMix64 expansion. Equal seeds give equal streams. *)

val split : t -> t
(** [split g] derives a new generator whose future output is independent
    of [g]'s (distinct SplitMix64 re-seeding), advancing [g]. *)

val copy : t -> t
(** Duplicate the current state; both copies then produce the same
    stream. *)

val bits64 : t -> int64
(** Next raw 64 random bits. *)

val advance : t -> int -> unit
(** [advance g n] leaves [g] in the state [n] calls of {!bits64} would,
    allocating nothing and costing a fraction of a draw per step: how
    a sampler starts partway through a stream whose draw count it
    knows. @raise Invalid_argument if [n < 0]. *)

val float : t -> float
(** Uniform in [[0, 1)] with 53 random bits. *)

val int : t -> int -> int
(** [int g bound] is uniform in [[0, bound)] (rejection sampling,
    unbiased). @raise Invalid_argument if [bound <= 0]. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli g p] is [true] with probability [p] (clamped to
    [[0, 1]]). *)

val bernoulli_at : t -> float array -> int -> bool
(** [bernoulli_at g ps i] is [bernoulli g ps.(i)], drawing the same
    value from the same stream. It reads the probability inside this
    module, so a draw loop over a probability array allocates nothing
    per draw, where passing [ps.(i)] to {!bernoulli} from another
    module boxes it. *)

val uniform : t -> float -> float -> float
(** [uniform g lo hi] is uniform in [[lo, hi)]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val weighted_index : t -> float array -> int
(** [weighted_index g ws] samples index [i] with probability
    [ws.(i) / sum ws] by linear scan. Weights must be non-negative with a
    positive sum. @raise Invalid_argument otherwise. *)

(** Word-parallel Bernoulli draws for the bit-sliced sampling kernel:
    62 worlds per native int, one bit-lane per world (the lane count
    matches [Hash64.word_bits] so lane masks pack like content-hash
    words). Draws are exact — each lane's marginal is exactly [p], with
    lanes independent — and cost an expected [~log2 62 + 2] generator
    words per call instead of 62 scalar {!bernoulli} draws. *)
module Bitbatch : sig
  val lanes : int
  (** Worlds per word: [62]. *)

  val all : int
  (** The full lane mask [(1 lsl lanes) - 1]. *)

  val draw : t -> float -> int
  (** [draw g p] returns a word whose bit [l] is an independent
      Bernoulli([p]) outcome for lane [l]. Consumes a data-dependent
      number of generator words (replayable: rerunning on a {!copy} of
      the state consumes the identical stream). Like {!bernoulli},
      clamps [p] to [[0, 1]] and consumes nothing for [p <= 0] /
      [p >= 1]. *)

  val draw_at : t -> float array -> int -> int
  (** [draw_at g ps i] is [draw g ps.(i)], with the probability read
      inside this module as in {!bernoulli_at}. *)

  val bernoulli_lane : t -> lane:int -> float -> bool
  (** [bernoulli_lane g ~lane p] is the scalar replay of lane [lane]:
      it runs the identical word-parallel draw on [g] (keeping [g]
      stream-synchronised with a batch draw from the same state) and
      returns that lane's bit. This is the per-world reference the
      differential tests replay a slab against.
      @raise Invalid_argument unless [0 <= lane < lanes]. *)

  val popcount : int -> int
  (** Number of set bits (verdict-mask accounting). *)
end

module Alias : sig
  (** Walker alias tables: O(n) build, O(1) weighted sampling, used by
      the stratified sampler when one stratum is drawn many times. *)

  type table

  val build : float array -> table
  (** @raise Invalid_argument on negative weights or a non-positive
      sum. *)

  val sample : t -> table -> int
  val size : table -> int
end
