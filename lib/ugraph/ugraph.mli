(** Uncertain graphs: undirected graphs whose edges exist independently
    with a given probability.

    This is the substrate type of the whole library (the paper's
    [G = (V, E, p)], Section 3.1).  Vertices are the integers
    [[0, n_vertices)].  The representation supports parallel edges and
    self-loops because the preprocessing transformations (Section 5 of the
    paper) create parallel edges when contracting series chains; reliability
    semantics are well defined for both.

    A graph is one struct of arrays: the edges' endpoints and
    probabilities in three flat arrays indexed by edge id, and a CSR
    adjacency index built eagerly with them, so reading an edge or
    iterating a neighbourhood allocates nothing. It is exactly the
    layout of [Kernel.Csr]'s natural-order snapshot, which is a view of
    these arrays, not a copy. The arrays are shared with every view and
    every graph {!map_probs} derives, so they are read-only: the
    structure is immutable after construction. Hot loops read the
    fields ([g.eu.(i)], [g.ep.(i)], ...); the boxed {!edge} record is
    for cold callers (constructors, checks, generators, tests), and
    {!edge} allocates one per call.

    A graph also holds one mutable word, its content digest once
    {!memo_digest} has computed it, so a graph that answers many
    queries is hashed once. Two graphs with the same content can
    therefore differ in that word: compare graphs field by field (as
    the tests do), never with polymorphic [=], [compare] or
    [Hashtbl.hash], which no caller does. *)

type edge = { u : int; v : int; p : float }
(** An undirected uncertain edge between [u] and [v] existing with
    probability [p]. The orientation of [(u, v)] carries no meaning. *)

type t = private {
  n : int;  (** vertex count *)
  m : int;  (** edge count *)
  eu : int array;  (** first endpoint of edge [i] *)
  ev : int array;  (** second endpoint of edge [i] *)
  ep : float array;  (** existence probability of edge [i] *)
  off : int array;
      (** adjacency offsets, length [n + 1]: vertex [x]'s incidences
          are the slots [off.(x) .. off.(x + 1) - 1] *)
  adj_eid : int array;
      (** incident edge ids per slot, in increasing id per vertex
          (a self-loop once) *)
  adj_other : int array;  (** the opposite endpoint per slot *)
  mutable digest_memo : int;
      (** the content digest once {!memo_digest} has computed it, [-1]
          before; read it through [Bingraph.Digest.of_graph] *)
}

val max_vertices : int
(** [2^31 - 1], the largest vertex count a graph may declare: the
    binary container stores endpoints as int32. *)

val create : n:int -> edge list -> t
(** [create ~n edges] builds a graph with [n] vertices.
    @raise Invalid_argument if [n] is outside [[0, max_vertices]], an
    endpoint is outside [[0, n)], a probability is outside [[0, 1]] or
    NaN, or the vertex arrays cannot be allocated. *)

val of_arrays : n:int -> eu:int array -> ev:int array -> ep:float array -> t
(** [of_arrays ~n ~eu ~ev ~ep] builds the graph whose edge [i] is
    [(eu.(i), ev.(i), ep.(i))]. The graph takes the three arrays over
    without copying them, so the caller must not write them afterwards;
    they are checked as by {!create}.
    @raise Invalid_argument as {!create}, or on a length mismatch. *)

val n_vertices : t -> int
val n_edges : t -> int

val memo_digest : t -> (t -> int) -> int
(** [memo_digest g fold] is [g]'s content digest: [fold g] on the first
    call, which stores it in [g], and the stored value on every later
    call. [fold] must be a pure, non-negative function of the graph's
    content; its one caller is [Bingraph.Digest.of_graph]. Safe from
    several domains at once: two first calls that race both fold and
    store the same value. *)

val edge : t -> int -> edge
(** [edge g i] is the edge with identifier [i] in [[0, n_edges)], as a
    fresh record: for cold callers, never a loop over a large graph. *)

val edges : t -> edge array
(** The edges as records, indexed by edge identifier. *)

val iter_edges : (int -> edge -> unit) -> t -> unit
val fold_edges : ('a -> int -> edge -> 'a) -> 'a -> t -> 'a
(** Record readers over every edge in id order; each record is
    allocated as with {!edge}. *)

val degree : t -> int -> int
(** Number of incident edge endpoints at a vertex. A self-loop counts
    once. *)

val iter_incident : t -> int -> (eid:int -> other:int -> unit) -> unit
(** Iterate the edges incident to a vertex. For a self-loop [other] equals
    the vertex itself and the edge is visited once. *)

val incident_eids : t -> int -> int array
(** Edge identifiers incident to a vertex (self-loops once). *)

val incident_get : t -> int -> int -> int * int
(** [incident_get g v i] is the [i]-th incident [(eid, other_endpoint)]
    of [v], for [i] in [[0, degree g v)]. Constant time, no allocation
    beyond the result pair; intended for iterative DFS/BFS that cannot
    use {!iter_incident}. *)

val incident_eid : t -> int -> int -> int
val incident_other : t -> int -> int -> int
(** The two halves of {!incident_get}, allocating nothing: for
    traversals that step through every incidence of a large graph. *)

val neighbours : t -> int -> int array
(** Endpoint vertices adjacent to a vertex, one entry per incident edge
    (so duplicated under parallel edges). *)

val other_endpoint : edge -> int -> int
(** [other_endpoint e v] is the endpoint of [e] that is not [v]
    ([v] itself for a self-loop).
    @raise Invalid_argument if [v] is not an endpoint of [e]. *)

val has_self_loop : t -> bool
val has_parallel_edge : t -> bool

val avg_degree : t -> float
val avg_prob : t -> float

val map_probs : (int -> edge -> float) -> t -> t
(** The graph with new edge probabilities; it shares [g]'s endpoint and
    adjacency arrays, not its digest. *)

val induced : t -> int array -> t * int array
(** [induced g vs] is the subgraph induced by the distinct vertices [vs],
    renumbered [0..]; returns [(sub, old_of_new)] where
    [old_of_new.(new_id) = old_id]. Edges with an endpoint outside [vs]
    are dropped. @raise Invalid_argument on duplicate vertices. *)

val relabel_terminals : old_of_new:int array -> int list -> int list
(** Map terminal ids of the original graph into the induced subgraph's
    numbering. Terminals not present in the subgraph are dropped. *)

val validate_terminals : t -> int list -> unit
(** @raise Invalid_argument if the terminal list is empty, contains a
    duplicate, or mentions a vertex outside the graph. *)

(** {1 Text I/O}

    Format: lines end at ['\n']; blanks are space, tab and CR; blank
    lines and lines whose first field starts with [#] are ignored. The
    first data line holds the vertex count alone, in
    [[0, max_vertices]] ([int_of_string] syntax); every following data
    line holds exactly [u v p]: vertex ids in [[0, n)] ([int_of_string]
    syntax) and a probability in [[0, 1]] ([float_of_string] syntax).
    When the first line is the writer's own comment
    [# uncertain graph: N vertices, M edges], the input must hold
    exactly [M] edges ("truncated input" otherwise).

    The readers run on {!Scan}: about six words per edge besides the
    graph, a probability token and its float, and one 64 KB buffer
    however large the file. Every field is checked once, as it is read,
    and a bad input raises [Invalid_argument] naming the problem and
    quoting the (trimmed) line: ["Ugraph.of_channel: vertex id 7
    outside [0,2) in edge line \"0 7 0.5\""]. *)

val to_channel : out_channel -> t -> unit
val of_channel : in_channel -> t
val to_file : string -> t -> unit
val of_file : string -> t
val of_string : string -> t
val to_buffer : Buffer.t -> t -> unit

(** {1 Edge-list scanning}

    The one scanner under the text format above and [Bingraph.Snap]. *)

module Scan : sig
  val lines : (bytes -> int -> int -> int) -> (bytes -> int -> int -> unit) -> unit
  (** [lines input f] reads the whole input through [input], which has
      the contract of [Stdlib.input] ([input buf pos len] stores at most
      [len > 0] bytes at [pos] and returns how many, [0] at the end), and
      calls [f buf start stop] on each line in order: the line is
      [buf.[start .. stop - 1]] without its newline, valid only during
      the call. A last line without a newline is a line; the empty rest
      after a final newline is not. Reads go into one 64 KB buffer, cut
      after its last newline; a longer line doubles it. *)

  val string_input : string -> bytes -> int -> int -> int
  (** An [input] for {!lines} that reads a string from its start. *)

  val skip_blanks : bytes -> int -> int -> int
  (** [skip_blanks b i stop] is the first index in [[i, stop)] that
      does not hold a blank (space, tab, CR), or [stop].
      @raise Invalid_argument if the span is outside [b]. *)

  val token_end : bytes -> int -> int -> int
  (** [token_end b i stop] is the first index in [[i, stop)] that holds
      a blank, or [stop]. @raise Invalid_argument as {!skip_blanks}. *)

  val decimal : bytes -> int -> int -> int
  (** [decimal b i stop] is [b.[i .. stop - 1]] read as plain decimal
      digits when it holds only digits and at most 18 of them, so that
      the value fits; otherwise [-1]. Allocates nothing.
      @raise Invalid_argument as {!skip_blanks}. *)

  (** Growable edge arrays: the first [len] slots hold the edges read;
      {!push} doubles the capacity when full (1024 at least). *)
  type edges = private {
    mutable eu : int array;
    mutable ev : int array;
    mutable ep : float array;
    mutable len : int;
  }

  val edges : int -> edges
  (** Empty arrays of the given capacity. *)

  val push : edges -> int -> int -> float -> unit
end

val pp_stats : Format.formatter -> t -> unit
(** One-line summary: vertex/edge counts, average degree, average
    probability (the columns of the paper's Table 2). *)
