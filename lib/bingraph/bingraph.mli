(** Compact binary container for uncertain graphs.

    The on-disk layout is a fixed 40-byte header followed by three
    dense arrays in canonical edge order, all little-endian:

    {v
    offset   size  field
    0        8     magic "NRBG0001" (format + version)
    8        8     int64  n  (vertex count)
    16       8     int64  m  (edge count)
    24       8     int64  62-bit content digest (= Engine.digest)
    32       8     int64  byte-order tag 0x0123456789ABCDEF
    40       4m    int32  eu.(i)  (first endpoint of edge i)
    40+4m    4m    int32  ev.(i)  (second endpoint of edge i)
    40+8m    8m    float64 ep.(i) (edge probability, exact bits)
    v}

    Probabilities are stored as raw IEEE-754 bit patterns, so a
    text → binary → text round trip is bit-identical (the text writer
    already prints [%.17g]). The header digest is the same chained
    splitmix64 fold [lib/engine] uses as its cache key, so a
    binary-loaded graph can skip the O(m) re-hash.

    [load] maps the three arrays with [Unix.map_file]: opening a
    million-edge graph is O(1) page-table work, not O(m) parsing, and
    [to_graph] turns the mapping into the [Ugraph.t] struct of arrays
    with one copy of each array and one pass of checks; no edge record
    is built. A header whose vertex count is outside
    [[0, Ugraph.max_vertices]] is refused before anything is sized by
    it. Every structural error raises [Invalid_argument] with a precise
    message (the CLI turns these into exit 2). *)

type t

val n_vertices : t -> int
val n_edges : t -> int

val digest : t -> int
(** The 62-bit content digest carried in (or computed for) the header.
    Equal to {!Digest.of_graph} of the corresponding [Ugraph.t]. *)

val edge : t -> int -> Ugraph.edge
(** Edge [i] in canonical order, as a fresh record. Bounds-checked. *)

val of_graph : Ugraph.t -> t
(** Copy a graph into the packed representation (computes the digest).
    Raises [Invalid_argument] if a vertex id exceeds int32 range. *)

val to_graph : t -> Ugraph.t
(** The graph: {!to_arrays} handed to [Ugraph.of_arrays], which checks
    every edge as {!validate} does and builds the adjacency, so a
    mapped file needs no separate {!validate} before it. About 7 words
    per edge plus one per vertex, all in the graph's own arrays.
    @raise Invalid_argument on an endpoint or probability out of
    range (with {!validate}'s message, which names the edge), or a
    vertex array that cannot be allocated. *)

val to_arrays : t -> int array * int array * float array
(** [(eu, ev, ep)] as fresh OCaml arrays in canonical edge order (the
    feed of [Kernel.Csr.of_arrays]); unchecked. *)

val validate : t -> unit
(** Range-check every edge (endpoints in [[0,n)], probabilities in
    [[0,1]], not NaN). [load] trusts the mmap'd bytes until this or
    {!to_graph} reads them; [netrel convert] calls it before copying a
    binary file as it is. *)

val to_bytes : t -> bytes
(** Serialize to the on-disk layout (header + arrays). *)

val of_bytes : bytes -> t
(** Parse the on-disk layout from memory (copies into fresh arrays).
    Shares all header/size checks with {!load}. *)

val to_file : string -> t -> unit
val of_file : string -> t
(** Read the whole file into memory ({!of_bytes}); the differential
    twin of {!load} for tests. *)

val load : string -> t
(** Open via [Unix.map_file]: header read + three O(1) mappings. The
    arrays are shared with the page cache — treat them as read-only. *)

val is_binary_file : string -> bool
(** Sniff the 8-byte magic; false for short/unreadable/text files. *)

module Digest : sig
  val of_graph : Ugraph.t -> int
  (** Chained [Hash64.mix64] over vertex count then exact (u, v, p)
      bit patterns in edge order, masked to 62 bits — the canonical
      graph content digest ([Engine.digest] delegates here). *)
end

module Snap : sig
  (** Streaming one-pass parser for SNAP / KONECT-style edge lists, on
      [Ugraph.Scan] (one 64 KB buffer, fields read in place): lines
      whose first field starts with [#] or [%] are comments; fields are
      separated by spaces, tabs and CRs; vertex ids are plain decimal
      digits up to [max_int], compacted in first-appearance order; an
      optional third probability column ([float_of_string] syntax, in
      [[0, 1]]) falls back to [default_prob], and further columns
      (KONECT timestamps) are ignored. Bad lines raise
      [Invalid_argument] with the 1-based line number:
      ["Bingraph.Snap: line 3: unreadable vertex id \"9223372036854775809\""]. *)

  val of_channel : ?default_prob:float -> in_channel -> t
  val of_file : ?default_prob:float -> string -> t
  val of_string : ?default_prob:float -> string -> t
end
