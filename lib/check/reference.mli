(** The pre-kernel samplers and S2BDD descents, retained verbatim as
    the differential oracle of the production kernels ({!Kernel}):
    boxed-edge iteration into a [bool array] mask, a full-reset
    union–find over every present edge, bool-array mask hashing and
    list-accumulating HT merges. They draw the same {!Prng} values in
    the same order and fold floats in the same order as the production
    paths, so for a fixed seed their outputs are bit-identical to
    them. Sequential, uninstrumented, not for production use. *)

val monte_carlo :
  ?seed:int -> Ugraph.t -> terminals:int list -> samples:int ->
  Mcsampling.estimate
(** {!Mcsampling.monte_carlo}'s estimate at every [jobs] value: the
    same chunk layout and per-chunk {!Prng.split} streams.
    @raise Invalid_argument on invalid terminals or [samples <= 0]. *)

val horvitz_thompson :
  ?seed:int -> Ugraph.t -> terminals:int list -> samples:int ->
  Mcsampling.estimate
(** {!Mcsampling.horvitz_thompson}'s estimate, likewise. *)

val descend :
  Bddbase.Fstate.ctx -> eager:bool -> pos:int -> Bddbase.Fstate.state ->
  bernoulli:(float -> bool) -> bool
(** Complete the intermediate graph of a state at layer [pos] by
    drawing each remaining edge with [bernoulli p] and stepping the
    frontier machine to a sink; [true] on [Sink1].
    @raise Invalid_argument if no sink is reached. *)

val descend_union :
  Bddbase.Fstate.ctx -> Ugraph.t -> terminals:int list -> dsu:Dsu.t ->
  detail:bool -> pos:int -> Bddbase.Fstate.state ->
  bernoulli:(float -> bool) -> bool * int * float
(** [descend_union ctx g ~terminals ...], for [ctx] built by
    [Fstate.make g ~order ~terminals]: {!descend}'s verdict from one
    union–find pass, with the state's explicit components (read through
    {!Bddbase.Fstate.key_exact}) anchored to virtual elements
    [n_vertices + comp_id]. Returns [(connected, completion_hash,
    log_probability)], the last two only when [detail] (the
    empty-stream digest and [0.] otherwise): what
    {!Bddbase.Fstate.descend_kernel}, {!Kernel.mask_hash} and
    {!Bddbase.Fstate.descent_log_q} must reproduce from the same
    draws. [dsu] is reset on entry; size [2 * n_vertices] suffices.
    @raise Invalid_argument if [dsu] is smaller than
    [n_vertices + component_count state]. *)

(** {1 Edge-list readers}

    The line-at-a-time readers that [Ugraph.Scan] replaced, the
    differential oracle of the production readers: one string per line
    from [input_line], fields found by recursion over it. They accept
    the same inputs and raise the same messages, with one declared
    exception: {!Snap} folds a vertex id past [max_int] into a native
    int, so it wraps onto another id, where [Bingraph.Snap] refuses it
    as unreadable. *)

module Text : sig
  val of_channel : in_channel -> Ugraph.t
  val of_string : string -> Ugraph.t
  val of_file : string -> Ugraph.t
end

module Snap : sig
  val of_channel : ?default_prob:float -> in_channel -> Bingraph.t
  val of_string : ?default_prob:float -> string -> Bingraph.t
  val of_file : ?default_prob:float -> string -> Bingraph.t
end
