(** Bridges, articulation points and 2-edge-connected components
    (Definition 3 of the paper), via one iterative Tarjan low-link DFS.

    Iterative because road-network-like inputs contain paths tens of
    thousands of vertices long, which would overflow the OCaml stack
    under a recursive DFS.

    Parallel edges are handled correctly: only the specific edge used to
    enter a vertex is skipped, so a parallel pair is never reported as a
    bridge. Self-loops are never bridges and never create articulation
    points. *)

type result = {
  is_bridge : bool array;        (** per edge identifier *)
  is_articulation : bool array;  (** per vertex *)
}

val run : Ugraph.t -> result
(** Single DFS over all components. O(|V| + |E|). *)

val bridges : Ugraph.t -> bool array
val articulation_points : Ugraph.t -> bool array

val bridge_eids : Ugraph.t -> int list
(** Bridge edge identifiers in increasing order (the paper's set [B]). *)

val two_edge_components : Ugraph.t -> int array * int
(** [(comp, count)] labelling every vertex with its 2-edge-connected
    component (component of the graph after deleting all bridges). Ids
    are assigned in increasing order of smallest member vertex. An
    isolated vertex forms its own component. *)

val components : Ugraph.t -> is_bridge:bool array -> int array * int
(** {!two_edge_components} from an already computed bridge mask
    ([is_bridge] as {!bridges} returns it), without another DFS. *)

val naive_bridges : Ugraph.t -> bool array
(** O(|E| * (|V| + |E|)) reference implementation (delete each edge and
    test whether its endpoints disconnect): used to cross-check {!run}
    in tests. *)
