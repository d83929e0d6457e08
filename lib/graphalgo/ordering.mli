(** Edge orderings for frontier-based BDD construction.

    The width of a frontier-based BDD is governed by the number of
    frontier vertices each layer keeps alive, which depends entirely on
    the order in which edges are processed (the [Ordering(E)] step of
    Algorithm 2). A good order keeps the incident edges of each vertex
    close together. *)

type strategy =
  | Natural      (** edge-identifier order, as stored *)
  | Bfs          (** vertices by BFS from a low-degree seed; edges grouped by first-visited endpoint *)
  | Dfs          (** same with DFS vertex order *)
  | Degree       (** vertices by ascending degree, greedily localised *)
  | Random of int  (** uniformly random order from the given seed *)
  | Bfs_from of int list
      (** multi-source BFS from the given vertices (typically the
          terminal set): edges incident to the sources come first, so a
          frontier-based construction decides each terminal's
          connectivity as early as possible — the property that makes
          the S2BDD's bounds tighten quickly *)

val strategy_name : strategy -> string

val all_strategies : strategy list
(** One representative of each constructor (seed 0 for [Random]). *)

val order_edges : strategy -> Ugraph.t -> int array
(** A permutation [pos -> eid] covering every edge exactly once. *)

(** {1 Frontier plans} *)

module Frontier : sig
  type plan = {
    order : int array;       (** [pos -> eid] *)
    pos_of_eid : int array;  (** inverse permutation *)
    first_pos : int array;
        (** per vertex: position of its first incident edge, or [-1] if
            isolated *)
    last_pos : int array;    (** per vertex: position of its last incident edge, or [-1] *)
    width : int array;
        (** [width.(l)]: number of frontier vertices alive after
            processing position [l] (vertices whose first position is
            [<= l] and last position [> l]) *)
    max_width : int;
  }

  val first_last : Ugraph.t -> int array -> int array * int array
  (** [first_last g order] is [(first_pos, last_pos)] of {!plan}, in
      one pass over [order] that allocates nothing besides the two
      arrays and a byte per edge for the permutation check. {!plan}
      computes its fields with it, and the frontier state machine
      needs nothing else of the plan.
      @raise Invalid_argument as {!plan}. *)

  val plan : Ugraph.t -> int array -> plan
  (** Build the frontier plan for a given edge order.
      @raise Invalid_argument if [order] is not a permutation of the
      edge identifiers. *)

  val max_width_of : Ugraph.t -> strategy -> int
  (** Convenience: frontier width of [order_edges strategy g]. *)
end

val best_order : Ugraph.t -> int array
(** The order among {!all_strategies} (excluding [Random]) with the
    smallest maximum frontier width, breaking ties towards [Bfs]. *)
