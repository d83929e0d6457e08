(** The "Transform" phase of the paper's extension technique (Section 5):
    reliability-preserving local rewrites applied to fixpoint.

    - {e Loop}: a self-loop never affects connectivity; delete it.
    - {e Parallel edges}: replace edges [e, e'] between the same pair by
      one edge with [p = 1 - (1 - p(e)) * (1 - p(e'))].
    - {e Sequential edges}: a non-terminal vertex [v] of degree two with
      edges [(v, v'), (v, v'')] is replaced by the single edge
      [(v', v'')] with [p = p(e) * p(e')]; whole chains collapse in one
      round. A chain closing on itself (an ear) becomes a self-loop and
      dies the next round; a floating terminal-free cycle is deleted.
    - {e Dangling}: a non-terminal vertex of degree at most one cannot
      lie on any terminal–terminal path; delete it and its edge.

    Every rewrite preserves [R[G, T]] exactly (checked against brute
    force in the test suite). *)

type result = {
  graph : Ugraph.t;        (** transformed graph, vertices renumbered *)
  terminals : int list;    (** terminals in the new numbering *)
  old_of_new : int array;  (** original vertex id per new vertex id *)
  rounds : int;            (** fixpoint iterations performed *)
}

val run : Ugraph.t -> terminals:int list -> result
(** Apply all rewrites until none fires. Terminal vertices are always
    retained, even if the rewrites isolate them (which signals overall
    reliability zero to the caller).

    The result is part of the determinism contract, bit for bit: each
    round consumes the edges in a fixed sequence (initially reverse
    edge-id order), the parallel merge emits [(min, max)] pairs in
    first-occurrence order with [p = 1 - prod (1 - p_i)] folded left to
    right — so even an unmerged edge's [p] becomes [1 - (1 - p)] every
    round — chain contraction emits the new edges in reverse discovery
    order before the survivors, with the chain product taken left to
    right from each walk's start, and the final sequence is emitted
    reversed. *)

val run_arrays :
  n:int ->
  eu:int array ->
  ev:int array ->
  ep:float array ->
  terminals:int list ->
  result
(** {!run} on the graph with [n] vertices whose edge [i] is
    [(eu.(i), ev.(i), ep.(i))], without building it first. The inputs
    are trusted: endpoints in range, probabilities in [[0, 1]],
    terminals distinct and in range. The arrays become the rounds'
    working buffers and are overwritten. *)
