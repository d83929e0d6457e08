(** Reachability queries on uncertain graphs — the "special type of
    network reliability" of the paper's related work (Section 2):
    two-terminal (s–t) reliability, the distance-constrained
    reachability of Jin et al. (PVLDB 2011), which asks for the
    probability that the hop distance between two vertices is at most a
    threshold, and the reliability search of Khan et al. (EDBT 2014),
    which asks which vertices the sources reach with probability at
    least a threshold.

    Two-terminal reliability delegates to the full S2BDD pipeline (it is
    k-terminal reliability with k = 2). Distance-constrained queries do
    not decompose over frontier states the same way, so they are served
    by an exact enumerator (tiny graphs) and a Monte Carlo estimator.
    That estimator and reliability search run one loop: each possible
    world is drawn by {!Kernel.draw} on the graph's {!Kernel.Csr.of_graph}
    snapshot, one Bernoulli per edge in edge-id order from the seed's
    one stream, and searched breadth-first over the snapshot's
    adjacency — to [d] levels for a distance query, to full depth for a
    search. Memory is O(V + E) whatever the sample count. One
    breadth-first search ({!hop_distance}) serves the enumerator, the
    estimator and the search.

    Distances are hop counts; the original paper supports weighted
    distances, which reduce to hops after subdividing edges. *)

val two_terminal :
  ?config:Netrel.S2bdd.config ->
  Ugraph.t ->
  source:int ->
  target:int ->
  Netrel.Reliability.report
(** [two_terminal g ~source ~target] is the s–t network reliability with
    all of Algorithm 1 (extension technique, S2BDD, Theorem-1 sample
    reduction) applied.
    @raise Invalid_argument if [source = target] or out of range. *)

type estimate = {
  value : float;
  samples_used : int;
  hits : int;
}

val distance_constrained_exact :
  Ugraph.t -> source:int -> target:int -> d:int -> float
(** Exact [Pr(dist(source, target) <= d)] by enumerating all possible
    graphs. @raise Invalid_argument beyond
    {!Bddbase.Bruteforce.max_edges} edges or on invalid arguments. *)

val distance_constrained_mc :
  ?seed:int ->
  Ugraph.t ->
  source:int ->
  target:int ->
  d:int ->
  samples:int ->
  estimate
(** Monte Carlo estimate of [Pr(dist(source, target) <= d)]:
    [samples] possible graphs, each searched [d] levels deep.
    @raise Invalid_argument on invalid arguments. *)

type hit = {
  vertex : int;
  reliability : float;  (** estimated reachability probability *)
}

val search :
  ?seed:int -> Ugraph.t -> sources:int list -> eta:float -> samples:int ->
  hit list
(** Reliability search: every vertex other than the sources that
    [samples] possible graphs estimate reachable from at least one
    source with probability [>= eta], sorted by decreasing reliability
    and then by vertex. Costs one Monte Carlo reliability estimate,
    O(samples * (V + E)).
    @raise Invalid_argument, before drawing a world, on an empty,
    out-of-range or duplicated source list, [eta] outside [[0, 1]]
    (NaN included) or [samples <= 0]. *)

val hop_distance :
  Kernel.Csr.t -> present:bool array -> int -> int -> int option
(** Hop distance between two vertices using only the positions whose
    entry in [present] is true; [None] when unreachable. The
    breadth-first search behind every query above, exposed for tests. *)
