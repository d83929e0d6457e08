(** Anytime reliability bounds without sampling.

    The S2BDD's [pc <= R <= 1 - pd] bounds are useful on their own —
    e.g. to prove that a reliability clears (or cannot clear) a
    threshold — and they only require construction, no sampling. This
    module runs pro's own construction, {!S2bdd.bounds} on each
    {!Reliability.split} subproblem, and multiplies: at the same width
    the interval is exactly the one {!Reliability.estimate} proves,
    without its descents.

    The construction runs as far as pro's does at the default budget
    [s = 10_000], which sets the Theorem-1 convergence stop, so wider
    layers cost more. On DBLP1 with 5 terminals, [netrel bounds] takes
    10-16 ms at [w = 50], about 0.2 s at [w = 1_000] and 3 s at
    [w = 10_000] (peak RSS 57 MB). *)

type t = {
  lower : float;
  upper : float;
  exact : bool;       (** the interval collapsed: lower = upper = R *)
}

val compute :
  ?width:int -> ?extension:bool -> Ugraph.t -> terminals:int list -> t
(** Proven bounds on [R[G, T]] from pro's construction at layer width
    [width] (default 10000). Everything else, the effort cap, edge
    order, seed and sample budget included, is
    {!S2bdd.default_config}. With [extension] (default true) the bounds
    multiply over the decomposed subproblems, which keeps them
    valid. *)

val decides : t -> threshold:float -> [ `Above | `Below | `Unknown ]
(** Whether the interval settles a threshold query:
    [`Above] when [lower >= threshold], [`Below] when
    [upper < threshold], [`Unknown] otherwise. *)
