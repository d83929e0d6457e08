(** The frontier state machine shared by the exact baseline BDD and the
    paper's S2BDD.

    A node of a frontier-based BDD at layer [l] represents an
    intermediate graph (Section 3.1): edges before position [l] are
    fixed existent/non-existent, the rest are uncertain.  The node's
    state is a sufficient statistic of that past: the partition of the
    current frontier vertices into connected components plus, per
    component, the number of terminals attached to it
    (the [c]/[t] attributes of Definition 2; the [d] attribute, the
    remaining degree, is summed per component by {!heuristic_log2}
    from a per-vertex table its caller keeps).

    Because the state is sufficient for the future, it also drives the
    paper's dynamic-programming sampling: {!descend_kernel} completes
    an intermediate graph into a possible graph by sampling the
    remaining edges and deciding terminal connectivity from the
    state's components; its differential oracles live in
    [Check.Reference]. *)

type state
(** Canonical frontier state. Equal states are interchangeable: they
    generate identical sub-BDDs. The representation is sparse: only
    {e non-trivial} frontier vertices (in a component spanning two or
    more frontier vertices, or carrying a terminal) are stored; the
    rest are implicit singletons, so state size tracks the active
    cluster boundary rather than the frontier width.

    A state is one packed int array, in {!key_exact}'s layout behind two
    header words: the hash of its merge key, computed once when {!step}
    writes the state, and its vertex count with the merge its context
    chose. So a state is its own {!Key_table} key. *)

type ctx
(** Immutable per-instance context: edge order, each vertex's first
    and last position, terminal bookkeeping, and the edges' endpoints
    and probabilities in processing order. *)

val make :
  ?merge_flags:bool -> Ugraph.t -> order:int array -> terminals:int list -> ctx
(** The context of a graph under an edge order. With [merge_flags]
    (default [false]) every state {!step} writes under it merges, in a
    {!Key_table}, on {!key_flags} (Lemma 4.3); otherwise on
    {!key_exact}. One pass over [order]
    checks it is a permutation and finds each vertex's first and last
    position ({!Graphalgo.Ordering.Frontier.first_last}); a second lays
    the edges out by position ({!Kernel.Csr.positions}, no adjacency:
    neither {!step} nor the descents read one). Its arrays are sized by
    the graph and allocate no minor-heap words per edge.
    @raise Invalid_argument on an invalid order or terminal set. *)

val n_positions : ctx -> int
val edge_at : ctx -> int -> Ugraph.edge
(** The edge processed at a position (layer), read from the context's
    processing-order arrays into a fresh record. *)

val initial : state
(** The empty state before processing position 0 (the BDD root). *)

(** Result of processing one edge decision. *)
type outcome =
  | Sink1          (** all terminals connected: contributes to [pc] *)
  | Sink0          (** terminals disconnected forever: contributes to [pd] *)
  | Live of state  (** still undecided; a node at the next layer *)

val step : ctx -> eager:bool -> pos:int -> state -> exists:bool -> outcome
(** Process the edge at [pos] with the given existence decision on a
    state valid at layer [pos]. It works in the calling domain's
    buffers with plain loops, so concurrent constructions on different
    domains share nothing, and allocates only its outcome: a [Live]
    state is one array, written and hashed once, in its box. An edge
    that makes no vertex explicit, joins no two components and takes
    no explicit vertex off the frontier yields [Live] of the state it
    was given.

    With [eager = true], the extended conditions of Lemmas 4.1–4.2 fire:
    a component holding every terminal sinks to 1 immediately; otherwise
    sinks trigger when departing vertices strand a terminal-bearing
    component.  With [eager = false] (the state-of-the-art baseline
    behaviour), only departure-time resolution is applied.  Both modes
    are exact; eager mode resolves sooner and keeps layers smaller. *)

val key_exact : state -> int array
(** Canonical merge key preserving exact per-component terminal counts
    (baseline BDD node merging), as a fresh array:
    [verts | comp_of | -1 | tc]. *)

val key_flags : state -> int array
(** Coarser canonical key using only per-component terminal flags —
    the Lemma 4.3 merge criterion (still exact; merges more nodes). *)

val hash : state -> int
(** The state's {!Key_table} hash: FNV-1a over its merge key, read from
    the state. *)

val key_length : state -> int
(** The length of {!key_exact} (and {!key_flags}) of a state, without
    building either. *)

val component_count : state -> int

val component_terminals : state -> int array
(** Terminal count per component id. *)

val heuristic_log2 : ctx -> rem:int array -> state -> log2_pn:float -> float
(** Priority of a node for the deleting procedure, Equation (10):
    [h(n) = p_n * max_f (t_{n,f} / k, 1 / d_{n,f})] over frontier
    components with [t > 0], computed in log2 to survive tiny [p_n].
    [rem] is the per-vertex remaining-degree table at the state's
    layer: incident edges at later positions, which the S2BDD
    construction decrements as it processes each edge. States with
    no terminal-bearing frontier component rank lowest at equal [p_n]
    (factor [1 / (2k * (1 + width))]). *)

val descend_kernel :
  ctx ->
  scratch:Kernel.t ->
  detail:bool ->
  pos:int ->
  state ->
  Prng.t ->
  bool
(** The DP descent: completes the intermediate graph of a state at
    layer [pos] into a random possible graph, drawing through
    {!Kernel.draw_sub} (flat position buffer; packed mask words when
    [detail]), and returns whether it connects the terminals, checked
    with the early-exit generation-stamped union–find. After a
    [detail] descent, {!Kernel.mask_hash} of [scratch] is the
    completion hash and {!descent_log_q} its log-probability; neither
    is computed until asked for. Bit-identical to
    [Check.Reference.descend_union] when its [bernoulli] draws
    [Prng.bernoulli] from a copy of the same stream: same draws, hash,
    log-probability and verdict. [scratch] is re-initialised on entry
    (a shared per-domain scratch from {!Kernel.scratch} is the
    intended argument). *)

val descent_log_q : ctx -> scratch:Kernel.t -> float
(** The log-probability of the last [detail] {!descend_kernel}
    completion on [scratch] ({!Kernel.drawn_log_q}); the
    Horvitz–Thompson descents read it only for a connected completion
    they have not seen before.
    @raise Invalid_argument if the last draw on [scratch] was not a
    [detail] descent of this context. *)

module Key_table : Hashtbl.S with type key = state
(** Hash tables keyed by states. A state's hash is the FNV-1a hash of
    its merge key (the one its context chose), read from the state, not
    recomputed; two states are equal when their merge keys are. So a
    table's buckets, and with them its iteration order, are those of a
    [Hashtbl.Make] table over the merge keys themselves. *)
