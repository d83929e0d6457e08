(** The bridge/block tree used by the paper's extension technique
    (Section 5, "Prune"): contract every 2-edge-connected component to a
    supernode; bridges become tree edges, so the contracted graph is a
    forest. The minimal Steiner subtree spanning the terminal-bearing
    supernodes identifies exactly the vertices and edges that can affect
    the network reliability. *)

type t = {
  comp_of_vertex : int array;
      (** 2ECC id of every original vertex, numbered in increasing order
          of smallest member vertex (as {!Bridges.two_edge_components}) *)
  n_comps : int;
  is_bridge : bool array;  (** per edge id: the bridges of the input *)
  tree_off : int array;
      (** CSR offsets, length [n_comps + 1]: supernode [c]'s tree edges
          are the slots [tree_off.(c) .. tree_off.(c+1) - 1] *)
  tree_nbr : int array;  (** per slot: the supernode at the other end *)
  tree_eid : int array;  (** per slot: the bridge's edge id *)
  terminal_count : int array;  (** per supernode, set by {!build} *)
}

val build : Ugraph.t -> terminals:int list -> t
(** Contract 2ECCs and record which supernodes host terminals: one
    Tarjan pass over the graph, then flat arrays only. *)

val steiner_keep : t -> bool array
(** [steiner_keep bt] marks the supernodes of the minimal subtree
    spanning all terminal-bearing supernodes: restricts to the tree of
    the forest holding the terminals, then iteratively strips
    terminal-free leaves. It keeps or drops whole supernodes, so the
    kept subgraph's bridges are exactly the input's bridges between
    kept supernodes.

    If the terminal supernodes lie in different trees of the forest, the
    terminals can never be connected; every supernode is then marked
    [false] — callers must detect this case via {!terminals_separated}
    before pruning. *)

val terminals_separated : t -> bool
(** [true] when terminal-bearing supernodes fall in two or more distinct
    trees of the forest (reliability is exactly zero). *)

val kept_vertices : t -> bool array -> bool array
(** Expand a supernode keep-mask back to original vertices. *)

val kept_bridges : t -> bool array -> (int, unit) Hashtbl.t
(** Bridge edge ids whose both endpoints' supernodes are kept (the tree
    edges of the Steiner subtree). *)
