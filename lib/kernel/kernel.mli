(** Flat sampling kernels: the shared fast path under every
    estimator's inner loop (MC, HT, and the S2BDD stratified descents),
    which all bottom out in "draw one possible graph, test terminal
    connectivity". A draw allocates nothing per edge — {!Prng} reads
    each probability out of the snapshot's array itself
    ({!Prng.bernoulli_at}, {!Prng.Bitbatch.draw_at}), so no float is
    boxed to cross the module boundary — and a connectivity round, a
    probability reader ({!drawn_prob}, {!drawn_log_q}, {!world_prob})
    or a world digest ({!mask_hash}, {!world_hash}) a constant number
    of words per call ([test/test_alloc.ml] holds these bounds).

    Three pieces:

    - {!Csr}: an immutable struct-of-arrays snapshot of the graph —
      edge endpoints, probabilities, and per-vertex adjacency in unboxed
      [int array]/[float array], indexed by {e position} (edge id for
      {!Csr.of_graph}, processing-order position for {!Csr.of_order}).
      A [Ugraph.t] already is this struct of arrays in edge-id order,
      so {!Csr.of_graph} is a view that shares the graph's arrays and
      copies nothing; the processing-order snapshots ({!Csr.of_order},
      {!Csr.positions}) are copies.

    - Draw loops writing into a reusable scratch ({!t}): one
      {!Prng.bernoulli} per edge {b in position order} — exactly the
      stream the pre-kernel samplers consumed, so seeded outputs are
      bit-identical (the draw-order contract, DESIGN.md section 10).
      Drawn-present positions are appended to a scratch buffer as they
      are drawn; the detail variants additionally pack the outcome bits
      62-per-word for {!Hash64.mask_words} (no [bool array] re-scan).
      A draw does no probability arithmetic: the readers {!drawn_prob}
      and {!drawn_log_q} compute the last draw's probability afterwards,
      in the reference implementations' float-operation order, for the
      worlds an estimator actually weights.

    - An early-exit union–find over the drawn-present buffer:
      generation-stamped (no O(elements) reset per sample) and counting
      {e live} required components so the union loop stops as soon as
      the terminals have merged, instead of unioning every present edge
      and re-checking all terminal pairs at the end. Early exit cannot
      change the verdict — unions never split components, so once the
      required-component count reaches 1 it stays there ([live <= 1] is
      monotone under union).

    The kernel never draws fewer Prng values than the reference (the
    draw always scans every remaining edge); only the union work is cut
    short. Differential oracles: the pre-kernel samplers and the
    union–find descent in [Check.Reference] (library [check]), kept
    bit-for-bit compatible and checked by [test/test_kernel.ml] and
    the [netrel selfcheck] sweep. *)

(** Immutable CSR-style graph snapshot. *)
module Csr : sig
  type t = private {
    n : int;  (** vertex count *)
    m : int;  (** edge (position) count *)
    eu : int array;  (** endpoint u by position *)
    ev : int array;  (** endpoint v by position *)
    ep : float array;  (** existence probability by position *)
    off : int array;
        (** adjacency offsets, length [n + 1] ([[||]] in a {!positions}
            snapshot) *)
    adj_pos : int array;  (** incident positions, CSR-packed *)
    adj_other : int array;  (** matching opposite endpoints *)
  }

  val of_graph : Ugraph.t -> t
  (** Snapshot in natural edge order: position = edge id. A view: its
      arrays are the graph's own ([eu == g.Ugraph.eu], ...,
      [adj_pos == g.Ugraph.adj_eid]), so it allocates one record,
      whatever the graph's size. *)

  val of_order : Ugraph.t -> order:int array -> t
  (** Snapshot in processing order: position [i] holds edge
      [order.(i)]. [order] need not cover every edge id. *)

  val positions : Ugraph.t -> order:int array -> t
  (** The edge positions of {!of_order} alone: [eu], [ev] and [ep] in
      processing order, with an empty adjacency ([off], [adj_pos] and
      [adj_other] are [[||]]), for callers that only stream the edges.
      Its result is accepted by the draws ({!draw}, {!draw_prob},
      {!draw_sub}, {!draw_bitsliced}), by the probability readers
      ({!drawn_prob}, {!drawn_log_q}, {!world_prob}) and by the
      union–find rounds ({!union_drawn}, {!connected_terminals}); the
      two functions that read the adjacency, {!iter_incident} and
      {!connected_lanes}, raise [Invalid_argument] on it. *)

  val of_arrays : n:int -> eu:int array -> ev:int array -> ep:float array -> t
  (** Snapshot from packed endpoint/probability arrays in natural edge
      order (position [i] = edge [i]): {!of_graph} of
      [Ugraph.of_arrays] over copies of the arrays, so it equals
      {!of_graph} of the same edges field for field.
      @raise Invalid_argument as [Ugraph.of_arrays]. *)

  val n_vertices : t -> int
  val n_edges : t -> int

  val iter_incident : t -> int -> (pos:int -> other:int -> unit) -> unit
  (** Iterate the positions incident to a vertex (self-loops once),
      mirroring {!Ugraph.iter_incident} in position space. *)
end

(** Packed bit-matrix transposition between the kernel's two layouts:
    edge-major (one word per edge, bit = world — the bit-sliced draw
    slab) and world-major (one row of packed words per world — what
    {!Hash64} digests). Both dimensions pack LSB-first,
    [Hash64.word_bits] per word, rows padded to whole words. *)
module Bitslab : sig
  val words_per_row : cols:int -> int
  (** Packed words per row of [cols] bits. *)

  val transpose : src:int array -> rows:int -> cols:int -> dst:int array -> unit
  (** [transpose ~src ~rows ~cols ~dst] writes the [cols × rows]
      transpose of the [rows × cols] bit matrix [src] into [dst]
      (which must hold at least [cols * words_per_row ~cols:rows]
      words; that prefix is fully overwritten). An involution:
      transposing back yields the original matrix. *)
end

type t
(** Mutable per-domain scratch: the drawn-present buffer, the packed
    mask words, the bit-sliced world slab, the stamped union–find and
    the per-vertex buffers of the bit-parallel search. Grows on demand
    and is reused across samples; nothing leaks between samples (the
    buffers are rewritten per draw, the union–find is invalidated
    wholesale by bumping its generation stamp, the search buffers are
    cleared per call). The scratch remembers which {!Csr.t} the last
    flat draw and the last bit-sliced draw each ran against, and every
    connectivity entry point rejects any other snapshot with
    [Invalid_argument] — positions in the draw buffers are meaningless
    against a different graph, and the pre-check failure mode was a
    silently wrong verdict. *)

val create : unit -> t

val scratch : unit -> t
(** The calling domain's scratch (domain-local storage). Samplers and
    descents share it — safe because a domain runs one task at a time
    and every round fully re-initialises what it reads. *)

(** {2 Draw loops}

    All variants draw every remaining edge in position order, one
    {!Prng.bernoulli} per edge, and append each drawn position and pack
    each mask bit without branching on the outcome. None computes a
    probability; {!drawn_prob} and {!drawn_log_q} read it afterwards. *)

val draw : t -> Csr.t -> Prng.t -> unit
(** MC draw: fill the present buffer only. *)

val draw_prob : t -> Csr.t -> Prng.t -> unit
(** HT draw: {!draw} that also packs the mask words, for {!mask_hash}
    and {!drawn_prob}; [draw_sub ~pos:0 ~detail:true]. *)

val draw_sub : t -> Csr.t -> pos:int -> detail:bool -> Prng.t -> unit
(** Descent draw: positions [pos .. m - 1] (the start-position offset of
    a resumed S2BDD descent), one {!Prng.bernoulli} per position from
    the given stream. With [~detail:true] also packs the mask words
    (bit [i] = outcome of position [pos + i]) for {!mask_hash} and
    {!drawn_log_q}. *)

val draw_outputs : Csr.t -> int
(** Generator outputs one whole-snapshot flat draw ({!draw},
    {!draw_prob}) consumes: one per position with [0 < p < 1], since
    {!Prng.bernoulli} draws nothing at [p <= 0] or [p >= 1]. So
    [Prng.advance g (k * draw_outputs c)] leaves [g] where [k] such
    draws would. *)

val n_present : t -> int
(** Number of present edges in the last draw. *)

val iter_present : t -> Csr.t -> (int -> unit) -> unit
(** [iter_present t c f] calls [f pos] on each drawn-present position
    of the last {!draw}, {!draw_prob} or {!draw_sub}, in position
    order — how a caller that searches the drawn world itself (the
    breadth-first searches of [Reach]) reads it.
    @raise Invalid_argument as {!union_drawn}, if that draw ran against
    a different {!Csr.t} than [c]. *)

val drawn_prob : t -> Csr.t -> Xprob.t
(** The possible-graph probability of the last flat draw,
    {!Xprob.world_prob} over its mask — bit for bit the
    [Xprob.scale p] / [Xprob.scale (1 - p)] fold in position order, the
    reference float-operation order. O(m): flat HT calls it only for
    the first occurrence of a connected world, the only worlds it
    weights.
    @raise Invalid_argument if the last flat draw ran against a
    different {!Csr.t} than [c], or was not a detail draw from
    position 0 ({!draw_prob}, or {!draw_sub} [~pos:0 ~detail:true]). *)

val drawn_log_q : t -> Csr.t -> float
(** The log-probability of the last detail draw over its positions
    [pos .. m - 1]: the sum in position order of [log p] for present
    edges with [p < 1] and [log1p (-p)] for absent ones, the value
    [Check.Reference.descend_union] accumulates as it draws. O(m - pos): the
    pro-ht descents call it only for the first occurrence of a
    connected completion.
    @raise Invalid_argument if the last flat draw ran against a
    different {!Csr.t} than [c], or was not a detail draw. *)

val mask_hash : t -> int
(** 62-bit content hash ({!Hash64.mask_words}) of the last
    {!draw_prob} / detail {!draw_sub} mask. Digest-identical to
    {!Hash64.mask} over the corresponding [bool array]. *)

(** {2 Bit-sliced world-parallel draws}

    One {!Prng.Bitbatch.draw} per edge fills a slab word whose bit [l]
    is world [l]'s outcome — [Prng.Bitbatch.lanes] (62) worlds per
    pass at an expected [~log2 62 + 2] generator words per edge.
    Verdicts are not bit-identical to the scalar draw order (the
    streams differ by construction); the per-world contract is instead
    replayability: lane [l] of the slab equals
    [Prng.Bitbatch.bernoulli_lane ~lane:l] replayed against a copy of
    the batch stream, which the differential battery checks. *)

val draw_bitsliced : t -> Csr.t -> Prng.t -> unit
(** Fill the slab: one batch draw per edge in position order. *)

val connected_lanes : t -> Csr.t -> int array -> active:int -> int
(** [connected_lanes t c terminals ~active] returns the verdict word
    for the last bit-sliced draw: bit [l] set iff lane [l] is in
    [active] and its world connects [terminals]. One bit-parallel
    reachability search over [c]'s adjacency answers every lane: each
    vertex carries the word of active lanes in which it is reachable
    from the first terminal, a FIFO worklist ORs that word, masked by
    the slab word of each incident position, into the neighbours and
    re-queues any neighbour whose word grew, and the search stops as
    soon as every terminal's word equals [active]. Allocates nothing;
    the scratch keeps three per-vertex buffers.
    @raise Invalid_argument if the last {!draw_bitsliced} ran against
    a different {!Csr.t}, or if a terminal is outside [c]'s vertex
    range. *)

val transpose_worlds : t -> unit
(** Transpose the slab into world-major packed mask rows for
    {!world_hash}. *)

val world_hash : t -> lane:int -> int
(** Content hash of lane [lane]'s world after {!transpose_worlds}.
    Digest-identical to {!Hash64.mask} over that world's [bool array]
    (and hence to the flat path's {!mask_hash} on an equal mask).
    @raise Invalid_argument unless [0 <= lane < Prng.Bitbatch.lanes]
    and {!transpose_worlds} ran since the slab last changed (the last
    {!draw_bitsliced} or {!set_slab_word}). *)

val world_prob : t -> Csr.t -> lane:int -> Xprob.t
(** Lane [lane]'s possible-graph probability, {!Xprob.world_prob} over
    the lane's slab bits — bit for bit the [Xprob.scale p] /
    [Xprob.scale (1 - p)] fold in position order, the reference
    float-operation order.
    @raise Invalid_argument unless [0 <= lane < Prng.Bitbatch.lanes],
    or if the last {!draw_bitsliced} ran against a different
    {!Csr.t}. *)

val slab_word : t -> int -> int
(** [slab_word t pos] reads slab word [pos] of the last bit-sliced
    draw (test and selfcheck surface).
    @raise Invalid_argument outside the drawn range. *)

val set_slab_word : t -> int -> int -> unit
(** Overwrite a slab word (lane-permutation metamorphic checks only;
    masked to the lane width). Invalidates the {!transpose_worlds}
    transposition. *)

(** {2 Early-exit connectivity rounds}

    A round is: {!round_begin}, then {!mark} every required element
    (and optionally pre-seed with {!union} — the S2BDD descent anchors
    frontier components this way), then {!union_drawn}. [live] counts
    components holding at least one marked element; the terminals are
    connected exactly when [live <= 1]. *)

val round_begin : t -> elems:int -> unit
(** Invalidate the union–find and size it for elements
    [0 .. elems - 1]. O(1) amortised: stamping replaces the O(elems)
    reset per sample. *)

val mark : t -> int -> unit
(** Flag an element as required (terminal or terminal-carrying
    component). *)

val union : t -> int -> int -> unit

val connected : t -> bool
(** Whether at most one live required component remains. *)

val union_drawn : t -> Csr.t -> bool
(** Union the endpoints of the drawn-present positions in draw order,
    stopping as soon as {!connected} holds; returns {!connected}.
    @raise Invalid_argument if the last {!draw}, {!draw_prob} or
    {!draw_sub} ran against a different {!Csr.t} than [c] (the present
    buffer holds positions, which another snapshot would misread; a
    {!draw_bitsliced} in between writes the slab, not this buffer). *)

val connected_terminals : t -> Csr.t -> int array -> bool
(** One full round: [round_begin] over the graph's vertices, [mark]
    each terminal, [union_drawn]. The complete MC connectivity check
    for the last draw.
    @raise Invalid_argument as {!union_drawn}. *)

val union_steps : t -> int
(** Work done by the last full connectivity entry point — the
    early-exit depth the observability layer histograms to show what
    early exit actually saves. For {!connected_terminals} it counts
    edge-union attempts: how far into the drawn edges the union loop
    ran before the terminals merged (or the edges ran out). Raw
    {!union_drawn} calls accumulate onto the last entry point's count.
    For {!connected_lanes} it counts the adjacency entries the search
    scanned, re-scans of re-queued vertices included, for the whole
    62-world batch — one count per batch, which both bit-sliced
    samplers (MC and HT) record. *)
